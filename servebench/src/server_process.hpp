// The shipped sesr-serve binary as a child process: spawn it, time it to its
// "listening on" readiness line, read its resource use from /proc, and stop
// it with SIGTERM (its graceful drain), keeping the drain report.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace servebench {

class ServerProcess {
 public:
  // Spawns `program args...` with stdout on a pipe and blocks until the
  // readiness line (throws if the child exits or stays silent for 120 s).
  ServerProcess(const std::string& program, const std::vector<std::string>& args);
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  double ready_seconds() const { return ready_seconds_; }  // spawn -> readiness line
  std::uint16_t port() const { return port_; }
  pid_t pid() const { return pid_; }

  // SIGTERM, read the rest of stdout, reap. Returns the exit status (or -1
  // for a signal death). Idempotent.
  int stop();
  const std::string& output() const { return output_; }

 private:
  bool read_some(int timeout_ms);  // false on EOF

  pid_t pid_ = -1;
  int out_fd_ = -1;
  int exit_code_ = -1;
  double ready_seconds_ = 0.0;
  std::uint16_t port_ = 0;
  std::string output_;
};

// utime + stime of a live process, in seconds (/proc/<pid>/stat).
double process_cpu_seconds(pid_t pid);
// Peak resident set (VmHWM) of a live process, in MiB (/proc/<pid>/status).
double process_peak_rss_mb(pid_t pid);
// Machine-wide CPU seconds taken by the hypervisor from this guest (the
// steal column of /proc/stat, summed over CPUs). Its growth during a phase
// explains a run that is slow for reasons outside the program.
double host_steal_seconds();

}  // namespace servebench
