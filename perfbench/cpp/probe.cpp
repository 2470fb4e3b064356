#include "probe.hpp"

#include <arpa/inet.h>
#include <dirent.h>
#include <fcntl.h>
#include <sched.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <system_error>
#include <thread>

#include "spans.hpp"

namespace perfbench {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// utime/stime (fields 14/15) of a /proc stat line; the comm field may
/// contain spaces, so fields are counted after the closing parenthesis.
void parse_stat(const std::string& text, std::uint64_t& utime,
                std::uint64_t& stime) {
  const std::size_t close = text.rfind(')');
  if (close == std::string::npos) throw std::runtime_error("bad /proc stat");
  std::istringstream in(text.substr(close + 2));
  std::string field;
  for (int index = 3; in >> field; ++index) {
    if (index == 14) utime = std::stoull(field);
    if (index == 15) {
      stime = std::stoull(field);
      return;
    }
  }
  throw std::runtime_error("short /proc stat");
}

std::uint64_t status_field(const std::string& text, const std::string& key) {
  const std::size_t at = text.find("\n" + key + ":");
  if (at == std::string::npos) return 0;
  return std::stoull(text.substr(at + key.size() + 2));
}

}  // namespace

void pin_current_thread(const std::vector<int>& cpus) {
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus) CPU_SET(cpu, &set);
  if (::sched_setaffinity(0, sizeof set, &set) != 0) {
    throw std::system_error(errno, std::generic_category(), "sched_setaffinity");
  }
}

DaemonProcess::DaemonProcess(const std::string& binary,
                             const std::vector<std::string>& args,
                             const std::string& log_path,
                             const std::vector<int>& cpus)
    : log_path_(log_path) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus) CPU_SET(cpu, &set);
  std::vector<std::string> argv_storage{binary, "serve", "--port", "0",
                                        "--admin-port", "0"};
  argv_storage.insert(argv_storage.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& arg : argv_storage) argv.push_back(arg.data());
  argv.push_back(nullptr);

  const int log_fd =
      ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (log_fd < 0) throw std::system_error(errno, std::generic_category(), log_path);
  pid_ = ::fork();
  if (pid_ < 0) {
    ::close(log_fd);
    throw std::system_error(errno, std::generic_category(), "fork");
  }
  if (pid_ == 0) {
    ::dup2(log_fd, STDOUT_FILENO);
    ::dup2(log_fd, STDERR_FILENO);
    if (!cpus.empty() && ::sched_setaffinity(0, sizeof set, &set) != 0) ::_exit(126);
    ::execv(binary.c_str(), argv.data());
    ::_exit(127);
  }
  ::close(log_fd);

  const auto deadline = Clock::now() + std::chrono::seconds(10);
  while (Clock::now() < deadline) {
    const std::string log = read_file(log_path);
    std::istringstream lines(log);
    std::string word;
    unsigned value = 0;
    while (lines >> word) {
      if (word == "listening" && lines >> value) port_ = static_cast<std::uint16_t>(value);
      if (word == "admin" && lines >> value) admin_port_ = static_cast<std::uint16_t>(value);
    }
    if (port_ != 0 && admin_port_ != 0) return;
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      throw std::runtime_error("aar_node exited at startup: " + log);
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  kill_and_reap();
  throw std::runtime_error("aar_node printed no ports within 10 s");
}

DaemonProcess::~DaemonProcess() { kill_and_reap(); }

void DaemonProcess::kill_and_reap() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGKILL);
  int status = 0;
  ::waitpid(pid_, &status, 0);
  pid_ = -1;
}

bool DaemonProcess::shutdown() {
  if (pid_ <= 0) return false;
  try {
    (void)admin_command(admin_port_, "shutdown");
  } catch (const std::exception&) {
    ::kill(pid_, SIGTERM);
  }
  const auto deadline = Clock::now() + std::chrono::seconds(10);
  while (Clock::now() < deadline) {
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      return WIFEXITED(status) && WEXITSTATUS(status) == 0;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  kill_and_reap();
  return false;
}

ProcSample sample_process(pid_t pid) {
  ProcSample sample;
  sample.at_ns = now_ns();
  const std::string base = "/proc/" + std::to_string(pid);
  parse_stat(read_file(base + "/stat"), sample.utime, sample.stime);
  const std::string io = read_file(base + "/io");
  sample.syscr = status_field("\n" + io, "syscr");
  sample.syscw = status_field("\n" + io, "syscw");
  const std::string status = read_file(base + "/status");
  sample.vm_hwm_kb = status_field(status, "VmHWM");
  sample.vm_rss_kb = status_field(status, "VmRSS");

  DIR* dir = ::opendir((base + "/task").c_str());
  if (dir == nullptr) throw std::runtime_error("cannot list " + base + "/task");
  while (const dirent* entry = ::readdir(dir)) {
    if (entry->d_name[0] == '.') continue;
    TaskSample task;
    task.tid = std::atoi(entry->d_name);
    const std::string task_base = base + "/task/" + entry->d_name;
    const std::string schedstat = read_file(task_base + "/schedstat");
    if (schedstat.empty()) continue;  // thread exited between readdir and read
    std::istringstream(schedstat) >> task.cpu_ns;
    sample.cpu_ns += task.cpu_ns;
    task.voluntary_switches =
        status_field(read_file(task_base + "/status"), "voluntary_ctxt_switches");
    sample.tasks.push_back(task);
  }
  ::closedir(dir);
  std::sort(sample.tasks.begin(), sample.tasks.end(),
            [](const TaskSample& a, const TaskSample& b) { return a.tid < b.tid; });
  return sample;
}

HostCpu sample_host_cpu() {
  std::istringstream in(read_file("/proc/stat"));
  std::string label;
  in >> label;
  if (label != "cpu") throw std::runtime_error("bad /proc/stat");
  HostCpu host;
  std::uint64_t value = 0;
  // user nice system idle iowait irq softirq steal (guest time is already
  // inside user and nice).
  for (int field = 0; field < 8 && in >> value; ++field) {
    host.total += value;
    if (field == 7) host.steal = value;
  }
  return host;
}

double steal_share(const HostCpu& before, const HostCpu& after) {
  if (after.total <= before.total) return 0.0;
  return static_cast<double>(after.steal - before.steal) /
         static_cast<double>(after.total - before.total);
}

std::string admin_command(std::uint16_t port, const std::string& command) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::system_error(errno, std::generic_category(), "socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    const int error = errno;
    ::close(fd);
    throw std::system_error(error, std::generic_category(), "admin connect");
  }
  const std::string line = command + "\n";
  std::size_t sent = 0;
  while (sent < line.size()) {
    const ssize_t n = ::send(fd, line.data() + sent, line.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      ::close(fd);
      throw std::runtime_error("admin send failed");
    }
    sent += static_cast<std::size_t>(n);
  }
  std::string reply;
  char buffer[65536];
  while (true) {
    const ssize_t n = ::recv(fd, buffer, sizeof buffer, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    reply.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return reply;
}

std::map<std::string, double> admin_stats(std::uint16_t port) {
  std::map<std::string, double> out;
  std::istringstream in(admin_command(port, "stats"));
  std::string name;
  double value = 0.0;
  while (in >> name) {
    if (name == "end") break;
    if (!(in >> value)) throw std::runtime_error("bad admin stats line " + name);
    out[name] = value;
  }
  return out;
}

TimerReading metrics_timer(const std::string& json, const std::string& name) {
  TimerReading reading;
  const std::size_t timers = json.find("\"timers\"");
  if (timers == std::string::npos) return reading;
  const std::size_t at = json.find("\"" + name + "\"", timers);
  if (at == std::string::npos) return reading;
  const std::size_t end = json.find('}', at);
  const std::string object = json.substr(at, end - at);
  const auto field = [&object](const std::string& key) -> std::uint64_t {
    const std::size_t pos = object.find("\"" + key + "\":");
    return pos == std::string::npos
               ? 0
               : std::stoull(object.substr(pos + key.size() + 3));
  };
  reading.count = field("count");
  reading.total_ns = field("total_ns");
  return reading;
}

}  // namespace perfbench
