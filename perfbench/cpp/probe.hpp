#pragma once
// Daemon probes: spawn `aar_node serve`, read its printed ports, sample
// /proc/<pid>/{stat,io,status} and /proc/<pid>/task/*/{schedstat,status},
// scrape the admin port, and shut the daemon down cleanly.

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// One `aar_node serve` child process.  The destructor kills and reaps a
/// daemon that was not shut down, so no run leaves a process behind.
class DaemonProcess {
 public:
  /// Spawns `binary serve --port 0 --admin-port 0 <args>` with stdout and
  /// stderr in `log_path`, restricted to `cpus` (all CPUs when empty), then
  /// waits (up to 10 s) for both port lines.
  DaemonProcess(const std::string& binary, const std::vector<std::string>& args,
                const std::string& log_path, const std::vector<int>& cpus = {});
  ~DaemonProcess();
  DaemonProcess(const DaemonProcess&) = delete;
  DaemonProcess& operator=(const DaemonProcess&) = delete;

  [[nodiscard]] pid_t pid() const noexcept { return pid_; }
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  [[nodiscard]] std::uint16_t admin_port() const noexcept {
    return admin_port_;
  }

  /// Admin `shutdown`, then wait for a clean exit (SIGKILL after 10 s).
  /// Returns true when the daemon exited with status 0.
  bool shutdown();

 private:
  void kill_and_reap();

  pid_t pid_ = -1;
  std::uint16_t port_ = 0;
  std::uint16_t admin_port_ = 0;
  std::string log_path_;
};

struct TaskSample {
  int tid = 0;
  std::uint64_t cpu_ns = 0;  ///< run time from schedstat, nanoseconds
  std::uint64_t voluntary_switches = 0;
};

struct ProcSample {
  std::uint64_t at_ns = 0;  ///< steady clock when sampled
  std::uint64_t utime = 0;  ///< process clock ticks (all threads)
  std::uint64_t stime = 0;
  std::uint64_t cpu_ns = 0;  ///< sum of the live tasks' cpu_ns
  std::uint64_t syscr = 0;  ///< read-type syscalls (/proc/<pid>/io)
  std::uint64_t syscw = 0;  ///< write-type syscalls
  std::uint64_t vm_hwm_kb = 0;
  std::uint64_t vm_rss_kb = 0;
  std::vector<TaskSample> tasks;  ///< sorted by tid; tid == pid is control
};

[[nodiscard]] ProcSample sample_process(pid_t pid);

/// Whole-guest CPU time from the first line of /proc/stat, in clock ticks.
struct HostCpu {
  std::uint64_t steal = 0;  ///< time the hypervisor ran other guests
  std::uint64_t total = 0;
};

[[nodiscard]] HostCpu sample_host_cpu();

/// Steal as a share of all CPU time between two samples (0 when no tick
/// elapsed).
[[nodiscard]] double steal_share(const HostCpu& before, const HostCpu& after);

/// Restrict the calling thread (and threads it creates later) to `cpus`;
/// a no-op for an empty list.  Throws when the kernel refuses the set.
void pin_current_thread(const std::vector<int>& cpus);

/// One admin command over a fresh loopback connection; returns the reply
/// read to EOF.  Throws on connection failure.
[[nodiscard]] std::string admin_command(std::uint16_t port,
                                        const std::string& command);

/// Admin `stats` parsed into name -> value.
[[nodiscard]] std::map<std::string, double> admin_stats(std::uint16_t port);

struct TimerReading {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
};

/// A timer's count/total from an `aar.metrics.v1` JSON document (admin
/// `metrics`); zero when the timer is absent.
[[nodiscard]] TimerReading metrics_timer(const std::string& json,
                                         const std::string& name);

}  // namespace perfbench
