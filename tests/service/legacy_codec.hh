/**
 * @file
 * A frozen copy of the iostream codecs the service shipped before the
 * string_view frame codec replaced them: the request/workload codec,
 * and the response, STATS, DUMP, SNAPSHOT, PING and PONG parsers and
 * writers.  It lives only in tests/, as the reference the
 * differential oracle (test_codec_oracle.cc) compares the production
 * codec against: same accept/reject decision, same error string,
 * same serialized bytes.
 *
 * Do not "fix" anything here — its quirks (an odd trailing level
 * token is ignored, a bare `policy` line keeps an earlier policy,
 * a frame with no `end` line parses to EOF, ...) are the accepted
 * language the production parser must keep.  The one known defect —
 * unsigned reply fields read through a signed parse and a cast, so
 * `bubble-count -1` becomes 2^64-1 — is kept here too: the oracle
 * asserts that class of frames explicitly.
 */

#ifndef JITSCHED_TESTS_SERVICE_LEGACY_CODEC_HH
#define JITSCHED_TESTS_SERVICE_LEGACY_CODEC_HH

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>

#include "service/protocol.hh"
#include "trace/workload.hh"

namespace jitsched {
namespace legacy {

/** strtoll-based integer parse (the reference for parseInt). */
std::optional<std::int64_t> parseInt(std::string_view s);

std::optional<Workload>
tryReadWorkload(std::istream &is, std::string *error = nullptr,
                const std::string &stop_line = "");

std::optional<ServiceRequest>
tryReadRequest(std::istream &is, std::string *error = nullptr);

std::string workloadText(const Workload &w);

std::string requestText(const ServiceRequest &req);

std::string responseText(const ServiceResponse &resp,
                         bool include_stats = true);

std::optional<ServiceResponse>
tryReadResponse(std::istream &is, std::string *error = nullptr);

void writeStatsRequest(std::ostream &os, const StatsRequest &req);
std::string statsRequestText(const StatsRequest &req);
std::optional<StatsRequest>
tryReadStatsRequest(std::istream &is, std::string *error = nullptr);

void writeStatsResponse(std::ostream &os, const StatsResponse &resp);
std::string statsResponseText(const StatsResponse &resp);
std::optional<StatsResponse>
tryReadStatsResponse(std::istream &is, std::string *error = nullptr);

void writeDumpRequest(std::ostream &os, const DumpRequest &req);
std::string dumpRequestText(const DumpRequest &req);
std::optional<DumpRequest>
tryReadDumpRequest(std::istream &is, std::string *error = nullptr);

void writeDumpResponse(std::ostream &os, const DumpResponse &resp);
std::string dumpResponseText(const DumpResponse &resp);
std::optional<DumpResponse>
tryReadDumpResponse(std::istream &is, std::string *error = nullptr);

void writeSnapshotRequest(std::ostream &os, const SnapshotRequest &req);
std::string snapshotRequestText(const SnapshotRequest &req);
std::optional<SnapshotRequest>
tryReadSnapshotRequest(std::istream &is, std::string *error = nullptr);

void writeSnapshotResponse(std::ostream &os,
                           const SnapshotResponse &resp);
std::string snapshotResponseText(const SnapshotResponse &resp);
std::optional<SnapshotResponse>
tryReadSnapshotResponse(std::istream &is, std::string *error = nullptr);

void writePingRequest(std::ostream &os, const PingRequest &req);
std::string pingRequestText(const PingRequest &req);
std::optional<PingRequest>
tryReadPingRequest(std::istream &is, std::string *error = nullptr);

void writePongResponse(std::ostream &os, const PongResponse &resp);
std::string pongResponseText(const PongResponse &resp);
std::optional<PongResponse>
tryReadPongResponse(std::istream &is, std::string *error = nullptr);

} // namespace legacy
} // namespace jitsched

#endif // JITSCHED_TESTS_SERVICE_LEGACY_CODEC_HH
