/**
 * @file
 * Plain-text serialization of workloads.
 *
 * The format mirrors what the paper's data-collection framework emits
 * from Jikes RVM replay runs: a function table with per-level
 * compilation/execution times, followed by the call sequence.
 *
 * Grammar (line oriented, '#' starts a comment):
 *
 *   workload <name>
 *   levels <L>
 *   func <id> <name> <size> <c0> <e0> <c1> <e1> ... (L pairs, ticks)
 *   calls <N>
 *   <id> <id> <id> ...        (whitespace separated, any line breaks)
 *
 * Functions may declare fewer than L levels by repeating the last
 * pair; the reader only requires each func line to carry at least one
 * pair and at most L.
 */

#ifndef JITSCHED_TRACE_TRACE_IO_HH
#define JITSCHED_TRACE_TRACE_IO_HH

#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>

#include "trace/workload.hh"

namespace jitsched {

/** Append a workload in the text format above to @p out. */
void appendWorkload(std::string &out, const Workload &w);

/** Serialize a workload to a stream (appendWorkload's bytes). */
void writeWorkload(std::ostream &os, const Workload &w);

/** Serialize a workload to a file; fatal() on I/O failure. */
void writeWorkloadFile(const std::string &path, const Workload &w);

/**
 * Parse a workload from text without killing the process — the one
 * workload parser; every other entry point feeds it.
 *
 * This is the parse path for inputs that arrive from *other
 * programs* — above all the scheduling service, where a malformed
 * client request must produce an error response, not take the daemon
 * down.  Also catches errors readWorkload() would previously have
 * escalated to panic(), such as call ids that point past the function
 * table.
 *
 * @param error receives a description of the first problem found
 *              (unchanged on success); may be null
 * @param stop_line when non-empty, parsing ends at the first line
 *              that (after comment/space stripping) equals this
 *              terminator instead of at the end of @p text — how the
 *              wire protocol embeds a workload in a larger frame
 * @return the workload, or nullopt on malformed input
 */
std::optional<Workload>
tryReadWorkload(std::string_view text, std::string *error = nullptr,
                std::string_view stop_line = {});

/**
 * Stream adapter for the parser above: buffers lines up to and
 * including @p stop_line (or to EOF when it is empty), leaving the
 * rest of the stream unread, and parses the buffer.
 */
std::optional<Workload>
tryReadWorkload(std::istream &is, std::string *error = nullptr,
                const std::string &stop_line = "");

/**
 * Parse a workload from a stream.
 * fatal() on malformed input (this is user data, not a bug).
 */
Workload readWorkload(std::istream &is);

/** Parse a workload from a file; fatal() on I/O failure. */
Workload readWorkloadFile(const std::string &path);

} // namespace jitsched

#endif // JITSCHED_TRACE_TRACE_IO_HH
