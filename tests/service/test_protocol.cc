/**
 * @file
 * Wire-protocol tests: request/response round trips, option
 * validation, malformed frames, frame-end detection, and the request
 * fingerprint the router's affinity relies on.
 */

#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "service/protocol.hh"
#include "trace/paper_examples.hh"
#include "trace/trace_io.hh"

namespace jitsched {
namespace {

ServiceRequest
exampleRequest()
{
    ServiceRequest req;
    req.id = 42;
    req.policy = "iar";
    req.options.compileCores = 2;
    req.options.model = ModelKind::Default;
    req.options.jitterSigma = 0.25;
    req.options.jitterSeed = 7;
    req.options.astarMaxExpansions = 1000;
    req.options.astarMemoryMb = 32;
    req.options.astarThreads = 4;
    req.options.deadlineMs = 500;
    req.workload = figure1Workload();
    return req;
}

std::string
workloadText(const Workload &w)
{
    std::ostringstream os;
    writeWorkload(os, w);
    return os.str();
}

TEST(ServiceProtocol, RequestRoundTrip)
{
    const ServiceRequest req = exampleRequest();
    std::istringstream is(requestText(req));
    std::string error;
    const auto back = tryReadRequest(is, &error);
    ASSERT_TRUE(back.has_value()) << error;
    EXPECT_EQ(back->id, req.id);
    EXPECT_EQ(back->policy, req.policy);
    EXPECT_EQ(back->options, req.options);
    EXPECT_EQ(workloadText(back->workload),
              workloadText(req.workload));
}

TEST(ServiceProtocol, RequestDefaultsSurviveRoundTrip)
{
    ServiceRequest req;
    req.id = 1;
    req.policy = "lower-bound";
    req.workload = figure2Workload();
    std::istringstream is(requestText(req));
    const auto back = tryReadRequest(is);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->options, ServiceOptions{});
}

TEST(ServiceProtocol, UnknownOptionKeyIsRejected)
{
    std::istringstream is("jitsched-request 1\n"
                          "policy iar\n"
                          "option frobnicate 3\n"
                          "payload\n" +
                          workloadText(figure1Workload()) + "end\n");
    std::string error;
    EXPECT_FALSE(tryReadRequest(is, &error).has_value());
    EXPECT_NE(error.find("frobnicate"), std::string::npos) << error;
}

TEST(ServiceProtocol, BadOptionValueIsRejected)
{
    std::istringstream is("jitsched-request 1\n"
                          "policy iar\n"
                          "option compile-cores 0\n"
                          "payload\n" +
                          workloadText(figure1Workload()) + "end\n");
    std::string error;
    EXPECT_FALSE(tryReadRequest(is, &error).has_value());
    EXPECT_NE(error.find("compile-cores"), std::string::npos)
        << error;
}

TEST(ServiceProtocol, ThreadsOptionParsesAndStaysOffTheWireByDefault)
{
    // Parse: `option threads N` lands in astarThreads.
    std::istringstream is("jitsched-request 1\n"
                          "policy astar-par\n"
                          "option threads 8\n"
                          "payload\n" +
                          workloadText(figure1Workload()) + "end\n");
    const auto back = tryReadRequest(is);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->options.astarThreads, 8u);

    // Serialize: a default (unset) threads option emits no line, so
    // frames from clients that never mention threads are
    // byte-identical to what pre-astar-par builds produced.
    ServiceRequest req;
    req.id = 1;
    req.policy = "iar";
    req.workload = figure1Workload();
    EXPECT_EQ(requestText(req).find("option threads"),
              std::string::npos);
}

TEST(ServiceProtocol, ThreadsOptionRejectsZeroAndGarbage)
{
    for (const std::string bad : {"0", "-2", "4x", "many"}) {
        SCOPED_TRACE(bad);
        std::istringstream is("jitsched-request 1\n"
                              "policy astar-par\n"
                              "option threads " + bad + "\n"
                              "payload\n" +
                              workloadText(figure1Workload()) +
                              "end\n");
        std::string error;
        EXPECT_FALSE(tryReadRequest(is, &error).has_value());
        EXPECT_NE(error.find("threads"), std::string::npos) << error;
    }
}

TEST(ServiceProtocol, EndBeforePayloadIsRejected)
{
    std::istringstream is("jitsched-request 1\n"
                          "policy iar\n"
                          "end\n");
    std::string error;
    EXPECT_FALSE(tryReadRequest(is, &error).has_value());
    EXPECT_FALSE(error.empty());
}

TEST(ServiceProtocol, MalformedWorkloadPropagatesParseError)
{
    std::istringstream is("jitsched-request 9\n"
                          "policy iar\n"
                          "payload\n"
                          "workload broken\n"
                          "levels two\n"
                          "end\n");
    std::string error;
    EXPECT_FALSE(tryReadRequest(is, &error).has_value());
    EXPECT_NE(error.find("trace parse error"), std::string::npos)
        << error;
}

TEST(ServiceProtocol, OkResponseRoundTrip)
{
    ServiceResponse resp;
    resp.id = 7;
    resp.ok = true;
    resp.policy = "iar";
    resp.lowerBound = 10;
    resp.hasSim = true;
    resp.sim.makespan = 11;
    resp.sim.execEnd = 11;
    resp.sim.compileEnd = 5;
    resp.sim.totalBubble = 1;
    resp.sim.bubbleCount = 1;
    resp.sim.totalExec = 9;
    resp.sim.totalCompile = 5;
    resp.sim.callsAtLevel = {3, 1};
    resp.hasSchedule = true;
    resp.schedule = {{0, 0}, {1, 1}};
    resp.stats.cacheHits = 2;
    resp.stats.cacheMisses = 1;
    resp.stats.queueNs = 100;
    resp.stats.solveNs = 2000;

    std::istringstream is(responseText(resp));
    std::string error;
    const auto back = tryReadResponse(is, &error);
    ASSERT_TRUE(back.has_value()) << error;
    EXPECT_TRUE(back->ok);
    EXPECT_EQ(back->id, resp.id);
    EXPECT_EQ(back->policy, resp.policy);
    EXPECT_EQ(back->lowerBound, resp.lowerBound);
    ASSERT_TRUE(back->hasSim);
    EXPECT_EQ(back->sim.makespan, resp.sim.makespan);
    EXPECT_EQ(back->sim.callsAtLevel, resp.sim.callsAtLevel);
    ASSERT_TRUE(back->hasSchedule);
    ASSERT_EQ(back->schedule.size(), resp.schedule.size());
    EXPECT_EQ(back->schedule[1].func, resp.schedule[1].func);
    EXPECT_EQ(back->schedule[1].level, resp.schedule[1].level);
    EXPECT_EQ(back->stats.cacheHits, resp.stats.cacheHits);
    EXPECT_EQ(back->stats.solveNs, resp.stats.solveNs);
}

TEST(ServiceProtocol, ErrorResponseRoundTrip)
{
    const ServiceResponse resp = makeErrorResponse(
        3, errcode::resourceExhausted, "queue full; retry later");
    std::istringstream is(responseText(resp));
    const auto back = tryReadResponse(is);
    ASSERT_TRUE(back.has_value());
    EXPECT_FALSE(back->ok);
    EXPECT_EQ(back->code, errcode::resourceExhausted);
    EXPECT_EQ(back->error, "queue full; retry later");
}

TEST(ServiceProtocol, AbsurdScheduleSizeDoesNotThrow)
{
    // A rogue server declaring a huge schedule must not make the
    // client's reserve() throw; the frame fails as truncated instead.
    std::istringstream is("jitsched-response 1\n"
                          "status ok\n"
                          "schedule 9999999999999999\n"
                          "0 0\n");
    std::string error;
    EXPECT_FALSE(tryReadResponse(is, &error).has_value());
    EXPECT_NE(error.find("schedule truncated"), std::string::npos)
        << error;
}

TEST(ServiceProtocol, StatsLineIsTheOnlyVolatilePart)
{
    ServiceResponse resp = makeErrorResponse(
        1, errcode::invalidArgument, "nope");
    resp.stats.solveNs = 12345;
    const std::string with = responseText(resp, true);
    const std::string without = responseText(resp, false);
    EXPECT_NE(with.find("\nstats "), std::string::npos);
    EXPECT_EQ(without.find("\nstats "), std::string::npos);
    // Removing the stats line from the full frame recovers the
    // deterministic block exactly.
    std::string stripped;
    std::istringstream is(with);
    for (std::string line; std::getline(is, line);)
        if (line.rfind("stats ", 0) != 0)
            stripped += line + "\n";
    EXPECT_EQ(stripped, without);
}

TEST(ServiceProtocol, StatsRequestRoundTrip)
{
    StatsRequest req;
    req.id = 99;
    const std::string text = frameText(req);
    EXPECT_EQ(text, "jitsched-stats 99\nend\n");
    EXPECT_EQ(frameTag(text), tag::stats);
    EXPECT_NE(frameTag("jitsched-request 99\nend\n"), tag::stats);

    std::string error;
    const auto back = tryReadFrame<StatsRequest>(text, &error);
    ASSERT_TRUE(back.has_value()) << error;
    EXPECT_EQ(back->id, 99u);
}

TEST(ServiceProtocol, StatsRequestRejectsABody)
{
    const std::string wire("jitsched-stats 1\npayload\nend\n");
    std::string error;
    EXPECT_FALSE(tryReadFrame<StatsRequest>(wire, &error).has_value());
    EXPECT_NE(error.find("carries a body"), std::string::npos)
        << error;
}

TEST(ServiceProtocol, StatsResponseOkRoundTrip)
{
    const StatsResponse resp = makeStatsResponse(
        7,
        "counter service.frames_served 3\n"
        "gauge service.queue.depth 0\n");
    ASSERT_EQ(resp.lines.size(), 2u);

    const std::string wire = frameText(resp);
    std::string error;
    const auto back = tryReadFrame<StatsResponse>(wire, &error);
    ASSERT_TRUE(back.has_value()) << error;
    EXPECT_EQ(back->id, 7u);
    EXPECT_TRUE(back->ok);
    ASSERT_EQ(back->lines.size(), 2u);
    EXPECT_EQ(back->lines[0], "counter service.frames_served 3");
    EXPECT_EQ(back->lines[1], "gauge service.queue.depth 0");
}

TEST(ServiceProtocol, StatsResponseErrorRoundTrip)
{
    StatsResponse resp;
    resp.id = 8;
    resp.ok = false;
    resp.code = errcode::invalidArgument;
    resp.error = "bad stats request";
    const std::string wire = frameText(resp);
    std::string error;
    const auto back = tryReadFrame<StatsResponse>(wire, &error);
    ASSERT_TRUE(back.has_value()) << error;
    EXPECT_FALSE(back->ok);
    EXPECT_EQ(back->code, errcode::invalidArgument);
    EXPECT_EQ(back->error, "bad stats request");
    EXPECT_TRUE(back->lines.empty());
}

TEST(ServiceProtocol, StatsResponseTruncatedSnapshotFails)
{
    const std::string wire("jitsched-stats-response 1\n"
                          "status ok\n"
                          "snapshot 5\n"
                          "counter a.b 1\n"
                          "end\n");
    std::string error;
    EXPECT_FALSE(tryReadFrame<StatsResponse>(wire, &error).has_value());
    EXPECT_NE(error.find("snapshot truncated"), std::string::npos)
        << error;
}

TEST(ServiceProtocol, FrameEndDetection)
{
    EXPECT_TRUE(isFrameEnd("end"));
    EXPECT_TRUE(isFrameEnd("  end  "));
    EXPECT_TRUE(isFrameEnd("end # trailing comment"));
    EXPECT_FALSE(isFrameEnd("ending"));
    EXPECT_FALSE(isFrameEnd("# end"));
    EXPECT_FALSE(isFrameEnd(""));
}

TEST(ServiceProtocol, FingerprintIgnoresId)
{
    ServiceRequest a = exampleRequest();
    ServiceRequest b = exampleRequest();
    b.id = a.id + 1;
    EXPECT_EQ(requestFingerprint(a), requestFingerprint(b));
}

TEST(ServiceProtocol, FingerprintSeesPolicyOptionsAndWorkload)
{
    const ServiceRequest base = exampleRequest();

    ServiceRequest other_policy = exampleRequest();
    other_policy.policy = "astar";
    EXPECT_NE(requestFingerprint(base),
              requestFingerprint(other_policy));

    ServiceRequest other_options = exampleRequest();
    other_options.options.compileCores = 3;
    EXPECT_NE(requestFingerprint(base),
              requestFingerprint(other_options));

    ServiceRequest other_workload = exampleRequest();
    other_workload.workload = figure2Workload();
    EXPECT_NE(requestFingerprint(base),
              requestFingerprint(other_workload));
}

TEST(ServiceProtocol, PingRequestRoundTrip)
{
    PingRequest req;
    req.id = 77;
    const std::string text = frameText(req);
    EXPECT_EQ(frameTag(text), tag::ping);
    EXPECT_NE(frameTag("jitsched-request 77\nend\n"), tag::ping);
    EXPECT_NE(frameTag(text), tag::stats);

    std::string error;
    const auto back = tryReadFrame<PingRequest>(text, &error);
    ASSERT_TRUE(back.has_value()) << error;
    EXPECT_EQ(back->id, 77u);
}

TEST(ServiceProtocol, PingRequestRejectsABody)
{
    const std::string wire("jitsched-ping 3\npayload\nend\n");
    std::string error;
    EXPECT_FALSE(tryReadFrame<PingRequest>(wire, &error).has_value());
    EXPECT_FALSE(error.empty());
}

TEST(ServiceProtocol, PongOkRoundTrip)
{
    const PongResponse resp = makePongResponse(77);
    EXPECT_TRUE(resp.ok);

    const std::string wire = frameText(resp);
    std::string error;
    const auto back = tryReadFrame<PongResponse>(wire, &error);
    ASSERT_TRUE(back.has_value()) << error;
    EXPECT_TRUE(back->ok);
    EXPECT_EQ(back->id, 77u);
    EXPECT_TRUE(back->code.empty());
}

TEST(ServiceProtocol, PongErrorRoundTrip)
{
    PongResponse resp;
    resp.id = 9;
    resp.ok = false;
    resp.code = errcode::unavailable;
    resp.error = "shutting down";

    const std::string wire = frameText(resp);
    std::string error;
    const auto back = tryReadFrame<PongResponse>(wire, &error);
    ASSERT_TRUE(back.has_value()) << error;
    EXPECT_FALSE(back->ok);
    EXPECT_EQ(back->id, 9u);
    EXPECT_EQ(back->code, errcode::unavailable);
    EXPECT_EQ(back->error, "shutting down");
}

} // anonymous namespace
} // namespace jitsched
