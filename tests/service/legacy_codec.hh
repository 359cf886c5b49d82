/**
 * @file
 * A frozen copy of the iostream request/workload codec the service
 * shipped before the single-pass string_view codec replaced it.  It
 * lives only in tests/, as the reference the differential oracle
 * (test_codec_oracle.cc) compares the production codec against: same
 * accept/reject decision, same error string, same serialized bytes.
 *
 * Do not "fix" anything here — its quirks (an odd trailing level
 * token is ignored, a bare `policy` line keeps an earlier policy,
 * a frame with no `end` line parses to EOF, ...) are the accepted
 * language the production parser must keep.
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

} // namespace legacy
} // namespace jitsched

#endif // JITSCHED_TESTS_SERVICE_LEGACY_CODEC_HH
