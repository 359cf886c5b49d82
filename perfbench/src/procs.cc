#include "procs.hh"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string_view>
#include <thread>

#include "service/client.hh"
#include "util.hh"

namespace perfbench {

namespace {

// Live child pids, readable from a signal handler.
constexpr int kMaxChildren = 64;
volatile sig_atomic_t g_children[kMaxChildren] = {};

void
track(pid_t pid)
{
    for (int i = 0; i < kMaxChildren; ++i) {
        if (g_children[i] == 0) {
            g_children[i] = pid;
            return;
        }
    }
}

void
untrack(pid_t pid)
{
    for (int i = 0; i < kMaxChildren; ++i) {
        if (g_children[i] == pid)
            g_children[i] = 0;
    }
}

extern "C" void
reapAndExit(int sig)
{
    // Only async-signal-safe calls: kill, waitpid, _exit.
    for (int i = 0; i < kMaxChildren; ++i) {
        const pid_t pid = g_children[i];
        if (pid > 0) {
            kill(pid, SIGKILL);
            waitpid(pid, nullptr, 0);
            g_children[i] = 0;
        }
    }
    _exit(128 + sig);
}

/** Fork and exec @p argv with stdout on @p out_fd, stderr on @p log. */
pid_t
forkExec(const std::vector<std::string> &argv, int out_fd,
         const std::string &log)
{
    std::vector<char *> cargv;
    for (const std::string &a : argv)
        cargv.push_back(const_cast<char *>(a.c_str()));
    cargv.push_back(nullptr);
    // The binaries run with their built-in defaults: no environment
    // override of the result cache or the thread count.  Built before
    // fork(), since the child may only make async-signal-safe calls.
    std::vector<char *> envp;
    for (char **e = environ; *e != nullptr; ++e) {
        const std::string_view var(*e);
        if (var.rfind("JITSCHED_RESULT_CACHE_MB=", 0) != 0 &&
            var.rfind("JITSCHED_RESULT_CACHE_SNAPSHOT=", 0) != 0 &&
            var.rfind("JITSCHED_THREADS=", 0) != 0)
            envp.push_back(*e);
    }
    envp.push_back(nullptr);
    const pid_t parent = getpid();
    const pid_t pid = fork();
    if (pid != 0)
        return pid;
    // Child: die with the benchmark and start from a clean signal mask.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent)
        _exit(127);
    sigset_t none;
    sigemptyset(&none);
    sigprocmask(SIG_SETMASK, &none, nullptr);
    const int log_fd =
        open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (log_fd >= 0)
        dup2(log_fd, 2);
    dup2(out_fd >= 0 ? out_fd : (log_fd >= 0 ? log_fd : 2), 1);
    execve(cargv[0], cargv.data(), envp.data());
    _exit(127);
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** CPU time (user + system) of a process, in milliseconds. */
double
processCpuMs(pid_t pid)
{
    const std::string stat =
        readFile("/proc/" + std::to_string(pid) + "/stat");
    const auto close = stat.rfind(')');
    if (close == std::string::npos)
        return 0.0;
    std::istringstream fields(stat.substr(close + 2));
    std::string tok;
    double ticks = 0.0;
    // Fields after the command name start at field 3 (state);
    // utime and stime are fields 14 and 15.
    for (int field = 3; field <= 15 && (fields >> tok); ++field) {
        if (field >= 14)
            ticks += std::strtod(tok.c_str(), nullptr);
    }
    return ticks * 1000.0 / static_cast<double>(sysconf(_SC_CLK_TCK));
}

/** Peak resident set (VmHWM) of a process, in MiB. */
double
processPeakRssMb(pid_t pid)
{
    std::istringstream status(
        readFile("/proc/" + std::to_string(pid) + "/status"));
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return 0.0;
}

} // anonymous namespace

void
installReaper(unsigned deadline_s)
{
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = reapAndExit;
    sigemptyset(&sa.sa_mask);
    for (int sig : {SIGINT, SIGTERM, SIGHUP, SIGALRM})
        sigaction(sig, &sa, nullptr);
    // A peer that closes a socket mid-write must not kill us before
    // the children are reaped.
    signal(SIGPIPE, SIG_IGN);
    alarm(deadline_s);
}

HostTicks
hostTicks()
{
    // "cpu  user nice system idle iowait irq softirq steal ..."
    std::istringstream line(readFile("/proc/stat"));
    std::string cpu;
    line >> cpu;
    HostTicks t;
    double v = 0.0;
    for (int field = 1; field <= 8 && (line >> v); ++field) {
        t.total += v;
        if (field == 8)
            t.steal = v;
    }
    return t;
}

int
runToCompletion(const std::vector<std::string> &argv,
                const std::string &log)
{
    const pid_t pid = forkExec(argv, -1, log);
    if (pid < 0)
        return -1;
    track(pid);
    int status = 0;
    while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    untrack(pid);
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

bool
System::spawn(const std::string &role,
              const std::vector<std::string> &args, std::string *error)
{
    int fds[2];
    if (pipe2(fds, O_CLOEXEC) != 0) {
        *error = "pipe: " + std::string(std::strerror(errno));
        return false;
    }
    std::vector<std::string> argv = {bin_dir_ + "/" + role};
    argv.insert(argv.end(), args.begin(), args.end());
    const std::string log = log_dir_ + "/" + role + "-" +
                            std::to_string(children_.size()) + ".log";
    const pid_t pid = forkExec(argv, fds[1], log);
    close(fds[1]);
    if (pid < 0) {
        close(fds[0]);
        *error = "fork: " + std::string(std::strerror(errno));
        return false;
    }
    track(pid);
    Child child;
    child.pid = pid;
    child.stdoutFd = fds[0];
    child.role = role;
    children_.push_back(child);

    // The binaries print "<role> listening on HOST:PORT" once bound.
    std::string buf;
    const auto deadline = Clock::now() + std::chrono::seconds(20);
    while (Clock::now() < deadline) {
        const auto nl = buf.find('\n');
        if (nl != std::string::npos) {
            const std::string line = buf.substr(0, nl);
            const auto colon = line.rfind(':');
            if (line.find("listening on") == std::string::npos ||
                colon == std::string::npos)
                break;
            children_.back().port = static_cast<std::uint16_t>(
                std::atoi(line.c_str() + colon + 1));
            return children_.back().port != 0;
        }
        pollfd pfd{fds[0], POLLIN, 0};
        if (poll(&pfd, 1, 100) <= 0)
            continue;
        char chunk[256];
        const ssize_t n = read(fds[0], chunk, sizeof(chunk));
        if (n <= 0)
            break;
        buf.append(chunk, static_cast<std::size_t>(n));
    }
    *error = role + " did not report a listening port (see " + log + ")";
    return false;
}

double
System::start(std::size_t backends, bool routed, std::string *error)
{
    const auto t0 = Clock::now();
    for (std::size_t b = 0; b < backends; ++b) {
        if (!spawn("jitschedd", {"--port", "0"}, error))
            return -1.0;
    }
    if (routed) {
        std::vector<std::string> args;
        for (std::uint16_t port : backendPorts()) {
            args.push_back("--backend");
            args.push_back("127.0.0.1:" + std::to_string(port));
        }
        args.push_back("--port");
        args.push_back("0");
        if (!spawn("jitsched-router", args, error))
            return -1.0;
    }
    const auto deadline = Clock::now() + std::chrono::seconds(20);
    while (Clock::now() < deadline) {
        jitsched::ClientConfig cfg;
        cfg.connectTimeoutMs = 1000;
        cfg.readTimeoutMs = 1000;
        jitsched::ServiceClient client(cfg);
        if (client.connect("127.0.0.1", entryPort()) && client.ping(1))
            return std::chrono::duration<double>(Clock::now() - t0)
                .count();
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    *error = "entry point never answered PING";
    return -1.0;
}

void
System::stopChildren(bool router_only)
{
    std::vector<Child> stopping, kept;
    for (const Child &c : children_)
        (router_only && c.role == "jitschedd" ? kept : stopping).push_back(c);
    for (const Child &c : stopping)
        kill(c.pid, SIGTERM);
    const auto grace = Clock::now() + std::chrono::seconds(5);
    for (const Child &c : stopping) {
        int status = 0;
        while (waitpid(c.pid, &status, WNOHANG) == 0) {
            if (Clock::now() >= grace) {
                kill(c.pid, SIGKILL);
                waitpid(c.pid, &status, 0);
                break;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        untrack(c.pid);
        close(c.stdoutFd);
    }
    children_ = std::move(kept);
}

std::uint16_t
System::entryPort() const
{
    return children_.empty() ? 0 : children_.back().port;
}

std::vector<std::uint16_t>
System::backendPorts() const
{
    std::vector<std::uint16_t> ports;
    for (const Child &c : children_) {
        if (c.role == "jitschedd")
            ports.push_back(c.port);
    }
    return ports;
}

double
System::cpuMs() const
{
    double sum = 0.0;
    for (const Child &c : children_)
        sum += processCpuMs(c.pid);
    return sum;
}

double
System::peakRssMb() const
{
    double sum = 0.0;
    for (const Child &c : children_)
        sum += processPeakRssMb(c.pid);
    return sum;
}

} // namespace perfbench
