/**
 * @file
 * Wire-protocol tests for the tracing surface: the `option trace-id`
 * request line (strict parse, fingerprint neutrality, byte identity
 * for untraced frames), the stats-line trace-id echo, the `prom`
 * stats argument, and the DUMP frame pair that scrapes the flight
 * recorder.
 */

#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "obs/flight_recorder.hh"
#include "obs/span.hh"
#include "service/protocol.hh"
#include "trace/paper_examples.hh"
#include "trace/trace_io.hh"

namespace jitsched {
namespace {

ServiceRequest
exampleRequest()
{
    ServiceRequest req;
    req.id = 9;
    req.policy = "iar";
    req.workload = figure1Workload();
    return req;
}

TEST(ProtocolTrace, TraceIdOptionRoundTrips)
{
    ServiceRequest req = exampleRequest();
    req.traceId = 0xdeadbeefULL;
    const std::string text = requestText(req);
    EXPECT_NE(text.find("option trace-id deadbeef\n"),
              std::string::npos)
        << text;

    std::istringstream is(text);
    std::string error;
    const auto back = tryReadRequest(is, &error);
    ASSERT_TRUE(back.has_value()) << error;
    EXPECT_EQ(back->traceId, 0xdeadbeefULL);
}

TEST(ProtocolTrace, UntracedRequestsStayByteIdentical)
{
    // A zero trace id emits no option line at all: frames from
    // pre-tracing builds and untraced clients are indistinguishable,
    // byte for byte.
    const ServiceRequest req = exampleRequest();
    const std::string text = requestText(req);
    EXPECT_EQ(text.find("trace-id"), std::string::npos) << text;

    std::istringstream is(text);
    const auto back = tryReadRequest(is);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->traceId, 0u);
}

TEST(ProtocolTrace, MalformedTraceIdOptionIsRejected)
{
    const std::string payload = [&] {
        std::ostringstream os;
        writeWorkload(os, figure1Workload());
        return os.str();
    }();
    for (const char *bad : {"0", "0000", "xyz", "0xab", "-1",
                            "11111111111111111"}) {
        std::istringstream is("jitsched-request 1\n"
                              "policy iar\n"
                              "option trace-id " +
                              std::string(bad) +
                              "\n"
                              "payload\n" +
                              payload + "end\n");
        std::string error;
        EXPECT_FALSE(tryReadRequest(is, &error).has_value()) << bad;
        EXPECT_NE(error.find("trace-id"), std::string::npos) << error;
    }
}

TEST(ProtocolTrace, TraceIdIsFingerprintNeutral)
{
    // The trace id is observability metadata: two requests that
    // differ only in trace id must hash (and compare) the same, or
    // tracing would split the router's affinity classes.
    ServiceRequest plain = exampleRequest();
    ServiceRequest traced = exampleRequest();
    traced.traceId = obs::mintTraceId();
    EXPECT_EQ(requestFingerprint(plain), requestFingerprint(traced));
    EXPECT_EQ(plain.options, traced.options);
}

TEST(ProtocolTrace, StatsLineEchoesTheTraceId)
{
    ServiceResponse resp;
    resp.id = 4;
    resp.ok = true;
    resp.stats.queueNs = 10;
    resp.stats.solveNs = 20;
    resp.stats.traceId = 0x1a2bULL;
    const std::string text = responseText(resp, true);
    EXPECT_NE(text.find(" trace-id 1a2b\n"), std::string::npos)
        << text;

    std::istringstream is(text);
    std::string error;
    const auto back = tryReadResponse(is, &error);
    ASSERT_TRUE(back.has_value()) << error;
    EXPECT_EQ(back->stats.traceId, 0x1a2bULL);
    EXPECT_EQ(back->stats.queueNs, 10);
    EXPECT_EQ(back->stats.solveNs, 20);

    // Untraced responses keep the pre-tracing stats line.
    resp.stats.traceId = 0;
    EXPECT_EQ(responseText(resp, true).find("trace-id"),
              std::string::npos);
}

TEST(ProtocolTrace, BadStatsTraceIdIsRejected)
{
    std::istringstream is("jitsched-response 4\n"
                          "status ok\n"
                          "lower-bound 0\n"
                          "stats cache-hits 0 cache-misses 0 "
                          "queue-ns 1 solve-ns 2 trace-id 0\n"
                          "end\n");
    std::string error;
    EXPECT_FALSE(tryReadResponse(is, &error).has_value());
    EXPECT_NE(error.find("trace-id"), std::string::npos) << error;
}

TEST(ProtocolTrace, StatsPromArgumentRoundTrips)
{
    StatsRequest req;
    req.id = 5;
    req.prom = true;
    EXPECT_EQ(frameText(req), "jitsched-stats 5 prom\nend\n");

    const std::string wire = frameText(req);
    std::string error;
    const auto back = tryReadFrame<StatsRequest>(wire, &error);
    ASSERT_TRUE(back.has_value()) << error;
    EXPECT_EQ(back->id, 5u);
    EXPECT_TRUE(back->prom);

    // Without the argument the flag stays off.
    const std::string plain("jitsched-stats 5\nend\n");
    const auto p = tryReadFrame<StatsRequest>(plain);
    ASSERT_TRUE(p.has_value());
    EXPECT_FALSE(p->prom);

    // Unknown arguments are rejected, not ignored.
    const std::string bad("jitsched-stats 5 json\nend\n");
    EXPECT_FALSE(tryReadFrame<StatsRequest>(bad, &error).has_value());
    EXPECT_NE(error.find("json"), std::string::npos) << error;
}

TEST(ProtocolTrace, PromSnapshotLinesSurviveTheStatsResponse)
{
    // Exposition lines start with '#' — the comment character of the
    // rest of the protocol.  The snapshot block must carry them raw.
    const std::string prom_text =
        "# TYPE jitsched_frames_total counter\n"
        "jitsched_frames_total 7\n";
    const StatsResponse resp = makeStatsResponse(6, prom_text, true);
    ASSERT_TRUE(resp.ok);
    EXPECT_TRUE(resp.prom);
    ASSERT_EQ(resp.lines.size(), 2u);

    const std::string text = frameText(resp);
    EXPECT_NE(text.find("format prom\n"), std::string::npos) << text;

    std::string error;
    const auto back = tryReadFrame<StatsResponse>(text, &error);
    ASSERT_TRUE(back.has_value()) << error;
    EXPECT_TRUE(back->ok);
    EXPECT_TRUE(back->prom);
    ASSERT_EQ(back->lines.size(), 2u);
    EXPECT_EQ(back->lines[0],
              "# TYPE jitsched_frames_total counter");
    EXPECT_EQ(back->lines[1], "jitsched_frames_total 7");
}

TEST(ProtocolTrace, DumpRequestRoundTrips)
{
    DumpRequest req;
    req.id = 11;
    EXPECT_EQ(frameText(req), "jitsched-dump 11\nend\n");
    EXPECT_EQ(frameTag(frameText(req)), tag::dump);
    EXPECT_NE(frameTag("jitsched-stats 11\nend\n"), tag::dump);

    const std::string wire = frameText(req);
    std::string error;
    const auto back = tryReadFrame<DumpRequest>(wire, &error);
    ASSERT_TRUE(back.has_value()) << error;
    EXPECT_EQ(back->id, 11u);

    // A body between header and `end` is a framing error.
    const std::string bad("jitsched-dump 11\nrecord x\nend\n");
    EXPECT_FALSE(tryReadFrame<DumpRequest>(bad, &error).has_value());
    EXPECT_NE(error.find("body"), std::string::npos) << error;
}

TEST(ProtocolTrace, DumpResponseRoundTripsRecords)
{
    obs::FlightRecord traced;
    traced.traceId = 0xbeefULL;
    traced.requestId = 1;
    traced.policy = "iar";
    traced.status = "ok";
    traced.queueNs = 100;
    traced.solveNs = 200;
    traced.bytes = 300;
    traced.hops = 2;
    obs::FlightRecord bare; // untraced, empty policy/status
    bare.requestId = 2;

    const DumpResponse resp =
        makeDumpResponse(12, {traced, bare});
    ASSERT_TRUE(resp.ok);

    const std::string wire = frameText(resp);
    std::string error;
    const auto back = tryReadFrame<DumpResponse>(wire, &error);
    ASSERT_TRUE(back.has_value()) << error;
    EXPECT_TRUE(back->ok);
    ASSERT_EQ(back->records.size(), 2u);
    EXPECT_EQ(back->records[0].traceId, 0xbeefULL);
    EXPECT_EQ(back->records[0].policy, "iar");
    EXPECT_EQ(back->records[0].status, "ok");
    EXPECT_EQ(back->records[0].queueNs, 100);
    EXPECT_EQ(back->records[0].solveNs, 200);
    EXPECT_EQ(back->records[0].bytes, 300u);
    EXPECT_EQ(back->records[0].hops, 2u);
    // `trace 0` and `-` placeholders decode back to the zero values.
    EXPECT_EQ(back->records[1].traceId, 0u);
    EXPECT_EQ(back->records[1].policy, "");
    EXPECT_EQ(back->records[1].status, "");
}

TEST(ProtocolTrace, DumpResponseErrorRoundTrips)
{
    DumpResponse resp;
    resp.id = 13;
    resp.ok = false;
    resp.code = errcode::unavailable;
    resp.error = "recorder disabled";

    const std::string wire = frameText(resp);
    std::string error;
    const auto back = tryReadFrame<DumpResponse>(wire, &error);
    ASSERT_TRUE(back.has_value()) << error;
    EXPECT_FALSE(back->ok);
    EXPECT_EQ(back->code, errcode::unavailable);
    EXPECT_EQ(back->error, "recorder disabled");
    EXPECT_TRUE(back->records.empty());
}

TEST(ProtocolTrace, DumpResponseRecordCountMustMatch)
{
    const std::string wire(
        "jitsched-dump-response 14\n"
        "status ok\n"
        "records 2\n"
        "record trace 0 request 1 policy - status - queue-ns 0 "
        "solve-ns 0 bytes 0 hops 0\n"
        "end\n");
    std::string error;
    EXPECT_FALSE(tryReadFrame<DumpResponse>(wire, &error).has_value());
    EXPECT_NE(error.find("declared"), std::string::npos) << error;
}

TEST(ProtocolTrace, DumpResponseBadRecordTraceIsRejected)
{
    const std::string wire(
        "jitsched-dump-response 15\n"
        "status ok\n"
        "records 1\n"
        "record trace zz request 1 policy - status - queue-ns 0 "
        "solve-ns 0 bytes 0 hops 0\n"
        "end\n");
    std::string error;
    EXPECT_FALSE(tryReadFrame<DumpResponse>(wire, &error).has_value());
    EXPECT_NE(error.find("trace id"), std::string::npos) << error;
}

} // anonymous namespace
} // namespace jitsched
