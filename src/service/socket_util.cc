#include "service/socket_util.hh"

#include <cerrno>
#include <cstring>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include "service/protocol.hh"

namespace jitsched {

namespace {

bool
sockFail(std::string *error, const std::string &what)
{
    if (error != nullptr)
        *error = what + ": " + std::strerror(errno);
    return false;
}

/** Build a sockaddr_in; false on an unparsable address. */
bool
makeAddr(const std::string &address, std::uint16_t port,
         sockaddr_in *out, std::string *error)
{
    std::memset(out, 0, sizeof(*out));
    out->sin_family = AF_INET;
    out->sin_port = htons(port);
    if (inet_pton(AF_INET, address.c_str(), &out->sin_addr) != 1) {
        if (error != nullptr)
            *error = "bad IPv4 address '" + address + "'";
        return false;
    }
    return true;
}

} // anonymous namespace

int
listenTcp(const std::string &address, std::uint16_t port, int backlog,
          std::string *error)
{
    sockaddr_in addr;
    if (!makeAddr(address, port, &addr, error))
        return -1;

    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
        sockFail(error, "socket()");
        return -1;
    }
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(fd, reinterpret_cast<const sockaddr *>(&addr),
               sizeof(addr)) != 0) {
        sockFail(error, "bind(" + address + ":" +
                 std::to_string(port) + ")");
        closeFd(fd);
        return -1;
    }
    if (::listen(fd, backlog) != 0) {
        sockFail(error, "listen()");
        closeFd(fd);
        return -1;
    }
    return fd;
}

std::uint16_t
boundPort(int fd)
{
    sockaddr_in addr;
    socklen_t len = sizeof(addr);
    if (::getsockname(fd, reinterpret_cast<sockaddr *>(&addr),
                      &len) != 0)
        return 0;
    return ntohs(addr.sin_port);
}

int
connectTcpTimeout(const std::string &address, std::uint16_t port,
                  int timeout_ms, std::string *error)
{
    if (timeout_ms < 0)
        return connectTcp(address, port, error);

    sockaddr_in addr;
    if (!makeAddr(address, port, &addr, error))
        return -1;

    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
        sockFail(error, "socket()");
        return -1;
    }
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags < 0 ||
        ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0) {
        sockFail(error, "fcntl(O_NONBLOCK)");
        closeFd(fd);
        return -1;
    }

    int rc;
    do {
        rc = ::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                       sizeof(addr));
    } while (rc != 0 && errno == EINTR);
    if (rc != 0 && errno != EINPROGRESS) {
        sockFail(error, "connect(" + address + ":" +
                 std::to_string(port) + ")");
        closeFd(fd);
        return -1;
    }
    if (rc != 0) {
        // Handshake in flight: await writability within the deadline,
        // then read the real outcome from SO_ERROR.
        pollfd pfd{fd, POLLOUT, 0};
        int pr;
        do {
            pr = ::poll(&pfd, 1, timeout_ms);
        } while (pr < 0 && errno == EINTR);
        if (pr == 0) {
            if (error != nullptr)
                *error = "connect(" + address + ":" +
                         std::to_string(port) + ") timed out after " +
                         std::to_string(timeout_ms) + " ms";
            closeFd(fd);
            return -1;
        }
        int so_error = 0;
        socklen_t len = sizeof(so_error);
        if (pr < 0 ||
            ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error,
                         &len) != 0 ||
            so_error != 0) {
            if (so_error != 0)
                errno = so_error;
            sockFail(error, "connect(" + address + ":" +
                     std::to_string(port) + ")");
            closeFd(fd);
            return -1;
        }
    }

    if (::fcntl(fd, F_SETFL, flags) != 0) {
        sockFail(error, "fcntl(restore flags)");
        closeFd(fd);
        return -1;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return fd;
}

void
setIoTimeouts(int fd, int recv_timeout_ms, int send_timeout_ms)
{
    const auto toTimeval = [](int ms) {
        timeval tv{};
        tv.tv_sec = ms / 1000;
        tv.tv_usec = (ms % 1000) * 1000;
        return tv;
    };
    if (recv_timeout_ms >= 0) {
        const timeval tv = toTimeval(recv_timeout_ms);
        ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    }
    if (send_timeout_ms >= 0) {
        const timeval tv = toTimeval(send_timeout_ms);
        ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
    }
}

int
connectTcp(const std::string &address, std::uint16_t port,
           std::string *error)
{
    sockaddr_in addr;
    if (!makeAddr(address, port, &addr, error))
        return -1;

    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
        sockFail(error, "socket()");
        return -1;
    }
    int rc;
    do {
        rc = ::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                       sizeof(addr));
    } while (rc != 0 && errno == EINTR);
    if (rc != 0) {
        sockFail(error, "connect(" + address + ":" +
                 std::to_string(port) + ")");
        closeFd(fd);
        return -1;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return fd;
}

bool
writeAll(int fd, std::string_view data)
{
    while (!data.empty()) {
        // MSG_NOSIGNAL: a peer that hung up must surface as EPIPE,
        // not kill the daemon with SIGPIPE.
        const ssize_t n =
            ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        data.remove_prefix(static_cast<std::size_t>(n));
    }
    return true;
}

void
closeFd(int fd)
{
    if (fd >= 0)
        ::close(fd);
}

bool
LineReader::fill()
{
    // Compact the consumed prefix occasionally so a long-lived
    // connection does not grow the buffer forever.
    if (pos_ > 64 * 1024) {
        buffer_.erase(0, pos_);
        pos_ = 0;
    }
    char chunk[16384];
    ssize_t n;
    do {
        n = ::read(fd_, chunk, sizeof(chunk));
    } while (n < 0 && errno == EINTR);
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        // SO_RCVTIMEO expired (setIoTimeouts): the peer is hung, not
        // gone.  Surface it distinctly so a client can retry
        // elsewhere instead of mistaking it for a clean close.
        timed_out_ = true;
        return false;
    }
    if (n <= 0)
        eof_ = true;
    else
        buffer_.append(chunk, static_cast<std::size_t>(n));
    return true;
}

std::optional<std::string>
LineReader::readFrame(std::size_t max_bytes)
{
    // Offsets are kept relative to pos_ because fill() may compact
    // the buffer.  `scan` is the start of the next unscanned line,
    // `size` the frame's length once each line's "\r\n" becomes
    // "\n" (a final line cut off by EOF keeps its '\r' and gains a
    // '\n'), and `has_cr` whether any line needs that rewrite.
    std::size_t scan = 0;
    std::size_t &size = frame_bytes_;
    size = 0;
    bool has_cr = false;
    for (;;) {
        const std::string_view pending =
            std::string_view(buffer_).substr(pos_ + scan);
        const std::size_t nl = pending.find('\n');
        const bool final_line = nl == std::string_view::npos && eof_ &&
                                !pending.empty();
        if (nl != std::string_view::npos || final_line) {
            std::string_view line = pending.substr(0, nl);
            const bool cr = !final_line && !line.empty() &&
                            line.back() == '\r';
            if (cr)
                line.remove_suffix(1);
            if (size + line.size() + 1 > max_bytes) {
                overflowed_ = true;
                return std::nullopt;
            }
            size += line.size() + 1;
            has_cr = has_cr || cr;
            scan += final_line ? pending.size() : nl + 1;
            if (isFrameEnd(line))
                break;
            continue;
        }
        if (eof_) {
            pos_ = buffer_.size();
            return std::nullopt;
        }
        if (pending.size() > max_line_) {
            overflowed_ = true;
            return std::nullopt;
        }
        if (!fill())
            return std::nullopt;
    }

    const std::string_view raw = std::string_view(buffer_).substr(pos_, scan);
    pos_ += scan;
    if (!has_cr && raw.size() == size)
        return std::string(raw);
    // Rare: "\r\n" line ends, or an unterminated final `end` line.
    std::string frame;
    frame.reserve(size);
    for (std::string_view rest = raw; !rest.empty();) {
        const std::size_t nl = rest.find('\n');
        std::string_view line = rest.substr(0, nl);
        if (nl != std::string_view::npos && !line.empty() &&
            line.back() == '\r')
            line.remove_suffix(1);
        frame += line;
        frame += '\n';
        rest.remove_prefix(nl == std::string_view::npos ? rest.size()
                                                        : nl + 1);
    }
    return frame;
}

} // namespace jitsched
