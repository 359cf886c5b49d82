/**
 * @file
 * Thin POSIX TCP helpers for the service daemon and client: bind and
 * listen on loopback, connect, retrying whole-buffer writes, and a
 * buffered line reader — just enough socket for the line-oriented
 * wire protocol, with errors reported as strings (a daemon must not
 * fatal() on a misbehaving peer).
 */

#ifndef JITSCHED_SERVICE_SOCKET_UTIL_HH
#define JITSCHED_SERVICE_SOCKET_UTIL_HH

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace jitsched {

/**
 * Create, bind and listen on a TCP socket.
 * @param address IPv4 dotted quad, e.g. "127.0.0.1"
 * @param port port to bind; 0 picks an ephemeral port
 * @param backlog listen(2) backlog
 * @param error receives a description on failure
 * @return the listening fd, or -1 on failure
 */
int listenTcp(const std::string &address, std::uint16_t port,
              int backlog, std::string *error);

/** Port a bound socket actually landed on (resolves port 0). */
std::uint16_t boundPort(int fd);

/**
 * Connect to a TCP endpoint.
 * @return the connected fd, or -1 on failure
 */
int connectTcp(const std::string &address, std::uint16_t port,
               std::string *error);

/**
 * Connect with a deadline: the socket is put into non-blocking mode,
 * the three-way handshake is awaited with poll(2), and the socket is
 * returned to blocking mode on success.  A peer that silently drops
 * SYNs (a hung or firewalled backend) fails in @p timeout_ms instead
 * of the kernel's minutes-long default.
 *
 * @param timeout_ms connect deadline; < 0 means block indefinitely
 *        (identical to connectTcp)
 * @return the connected fd, or -1 on failure/timeout
 */
int connectTcpTimeout(const std::string &address, std::uint16_t port,
                      int timeout_ms, std::string *error);

/**
 * Arm SO_RCVTIMEO / SO_SNDTIMEO on a connected socket.  A value < 0
 * leaves that direction untouched; 0 disables the timeout.  With a
 * receive timeout armed, LineReader::readFrame() returns nullopt on
 * expiry with timedOut() set — how a client tells a hung server from
 * a closed one.
 */
void setIoTimeouts(int fd, int recv_timeout_ms, int send_timeout_ms);

/** Write the whole buffer, retrying on partial writes and EINTR. */
bool writeAll(int fd, std::string_view data);

/** Close an fd, ignoring EINTR; no-op for fd < 0. */
void closeFd(int fd);

/**
 * Buffered reader returning one protocol frame at a time: the lines
 * through an `end` line, each '\n'-terminated ("\r\n" tolerated).
 * A final unterminated line before EOF counts as a line.
 *
 * Lines are capped at @p max_line_bytes: a peer streaming bytes
 * without ever sending a newline would otherwise grow the buffer
 * without bound.  On overflow readFrame() returns nullopt and
 * overflowed() reports why, so the caller can tell a hostile peer
 * from a clean EOF.
 */
class LineReader
{
  public:
    explicit LineReader(int fd,
                        std::size_t max_line_bytes = std::size_t(1)
                                                     << 20)
        : fd_(fd), max_line_(max_line_bytes)
    {
    }

    /**
     * Next frame: every line up to and including the first one that
     * isFrameEnd() accepts, each terminated by a lone '\n', scanned
     * in place and copied out once.  nullopt at EOF before the `end`
     * line, on a read error or timeout, on an oversized line, or when
     * the frame would exceed @p max_bytes (overflowed() is then set
     * too).
     */
    std::optional<std::string>
    readFrame(std::size_t max_bytes = std::string::npos);

    /**
     * Bytes the last readFrame() took in, each line counted with one
     * '\n': the frame's size, or — after a nullopt — the lines read
     * before the cap, EOF or timeout cut the frame off.
     */
    std::size_t frameBytes() const { return frame_bytes_; }

    /** True once a line or frame exceeded its cap. */
    bool overflowed() const { return overflowed_; }

    /**
     * True once a read expired against the socket's SO_RCVTIMEO
     * (see setIoTimeouts).  Distinguishes "the peer is hung" from
     * "the peer hung up" after a nullopt readFrame().
     */
    bool timedOut() const { return timed_out_; }

  private:
    /**
     * Append the next chunk from the fd, or set eof_ on EOF or a
     * read error; false only when the read timed out.
     */
    bool fill();

    int fd_;
    std::size_t max_line_;
    std::string buffer_;
    std::size_t pos_ = 0;
    std::size_t frame_bytes_ = 0;
    bool eof_ = false;
    bool overflowed_ = false;
    bool timed_out_ = false;
};

} // namespace jitsched

#endif // JITSCHED_SERVICE_SOCKET_UTIL_HH
