/**
 * @file
 * The system under test as child processes: spawn the shipped
 * jitschedd / jitsched-router binaries with their default flags plus
 * `--port 0`, learn the ports they print, read their CPU time and
 * peak RSS from /proc, and reap every one of them on every exit path.
 *
 * Hygiene: each child gets PR_SET_PDEATHSIG(SIGKILL), so it dies
 * with the benchmark even on a crash; every live pid is also kept in
 * a signal-safe table that the SIGINT/SIGTERM/SIGALRM handler kills
 * and waits for before the benchmark exits.
 */

#ifndef PERFBENCH_PROCS_HH
#define PERFBENCH_PROCS_HH

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/**
 * Install the handler that reaps all children and exits with
 * 128 + signal on SIGINT, SIGTERM, SIGHUP and SIGALRM, and arm an
 * alarm after @p deadline_s seconds.
 */
void installReaper(unsigned deadline_s);

/** Host-wide CPU time so far, from /proc/stat, in clock ticks. */
struct HostTicks
{
    double steal = 0.0; ///< taken by the hypervisor for other guests
    double total = 0.0;
};
HostTicks hostTicks();

/**
 * Run a program to completion (stdout/stderr appended to @p log) and
 * return its exit status, or -1 when it could not be started.
 */
int runToCompletion(const std::vector<std::string> &argv,
                    const std::string &log);

/** One spawned daemon or router. */
struct Child
{
    pid_t pid = -1;
    int stdoutFd = -1;
    std::uint16_t port = 0;
    std::string role; ///< "jitschedd" or "jitsched-router"
};

/**
 * The deployed system: one jitschedd, or `backends` jitschedd
 * processes behind one jitsched-router.  The destructor stops
 * everything.
 */
class System
{
  public:
    System(std::string bin_dir, std::string log_dir)
        : bin_dir_(std::move(bin_dir)), log_dir_(std::move(log_dir))
    {
    }
    ~System() { stop(); }

    System(const System &) = delete;
    System &operator=(const System &) = delete;

    /**
     * Spawn the system and block until its entry point answers PING.
     * @param backends number of daemons
     * @param routed put a router in front of them
     * @return seconds from the first spawn to the first PING answer,
     *         or a negative value with *error set
     */
    double start(std::size_t backends, bool routed, std::string *error);

    /** SIGTERM everything, SIGKILL after a grace period, reap. */
    void stop() { stopChildren(false); }

    /**
     * Stop only the router.  While it runs, its pooled connections
     * hold every backend connection handler, so nothing else can
     * reach a backend.
     */
    void stopRouter() { stopChildren(true); }

    /** Port clients connect to (router when routed). */
    std::uint16_t entryPort() const;

    /** Ports of the jitschedd processes. */
    std::vector<std::uint16_t> backendPorts() const;

    /** Summed CPU milliseconds of every child. */
    double cpuMs() const;

    /** Summed VmHWM of every child, in MiB. */
    double peakRssMb() const;

  private:
    void stopChildren(bool router_only);
    bool spawn(const std::string &role,
               const std::vector<std::string> &args, std::string *error);

    std::string bin_dir_;
    std::string log_dir_;
    std::vector<Child> children_;
};

} // namespace perfbench

#endif // PERFBENCH_PROCS_HH
