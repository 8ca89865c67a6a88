#include "server_process.hpp"

#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

extern char** environ;

namespace servebench {

ServerProcess::ServerProcess(const std::string& program, const std::vector<std::string>& args) {
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error(std::string("pipe: ") + std::strerror(errno));
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  std::vector<std::string> argv_storage;
  argv_storage.push_back(program);
  argv_storage.insert(argv_storage.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& a : argv_storage) argv.push_back(a.data());
  argv.push_back(nullptr);

  const auto start = std::chrono::steady_clock::now();
  const int rc = posix_spawn(&pid_, program.c_str(), &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  out_fd_ = fds[0];
  if (rc != 0) {
    close(out_fd_);
    out_fd_ = -1;
    pid_ = -1;
    throw std::runtime_error("cannot spawn " + program + ": " + std::strerror(rc));
  }
  const auto give_up = start + std::chrono::seconds(120);
  const std::string marker = "listening on ";
  std::size_t at = std::string::npos;
  while ((at = output_.find(marker)) == std::string::npos ||
         output_.find('\n', at) == std::string::npos) {
    if (std::chrono::steady_clock::now() > give_up || !read_some(1000)) {
      stop();
      throw std::runtime_error("sesr-serve did not report readiness:\n" + output_);
    }
  }
  ready_seconds_ =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  const std::size_t colon = output_.find(':', at + marker.size());
  port_ = static_cast<std::uint16_t>(std::stoi(output_.substr(colon + 1)));
}

ServerProcess::~ServerProcess() { stop(); }

bool ServerProcess::read_some(int timeout_ms) {
  pollfd pfd{out_fd_, POLLIN, 0};
  const int ready = poll(&pfd, 1, timeout_ms);
  if (ready < 0 && errno != EINTR) return false;
  if (ready <= 0) return true;
  char buffer[4096];
  const ssize_t n = read(out_fd_, buffer, sizeof(buffer));
  if (n < 0) return errno == EINTR || errno == EAGAIN;
  if (n == 0) return false;
  output_.append(buffer, static_cast<std::size_t>(n));
  return true;
}

int ServerProcess::stop() {
  if (pid_ < 0) return exit_code_;
  kill(pid_, SIGTERM);
  // The drain completes in-flight work and exits; a child still holding its
  // stdout open after a minute is killed.
  const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (out_fd_ >= 0 && read_some(1000)) {
    if (std::chrono::steady_clock::now() > give_up) kill(pid_, SIGKILL);
  }
  if (out_fd_ >= 0) close(out_fd_);
  out_fd_ = -1;
  int status = 0;
  while (waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
  pid_ = -1;
  exit_code_ = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return exit_code_;
}

double process_cpu_seconds(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  // Fields after the parenthesised command name; utime and stime are fields
  // 14 and 15 of the whole line, i.e. the 12th and 13th after ')'.
  const std::size_t close_paren = text.rfind(')');
  if (close_paren == std::string::npos) throw std::runtime_error("cannot read /proc stat");
  std::istringstream fields(text.substr(close_paren + 2));
  std::string field;
  unsigned long long utime = 0, stime = 0;
  for (int i = 1; i <= 13 && fields >> field; ++i) {
    if (i == 12) utime = std::stoull(field);
    if (i == 13) stime = std::stoull(field);
  }
  return static_cast<double>(utime + stime) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double process_peak_rss_mb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  throw std::runtime_error("cannot read VmHWM");
}

double host_steal_seconds() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  unsigned long long v[8] = {};
  in >> cpu;
  for (unsigned long long& x : v) in >> x;
  return static_cast<double>(v[7]) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

}  // namespace servebench
