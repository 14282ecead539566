#include "proc.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

namespace perfbench {

DaemonProcess::DaemonProcess(const std::string& binary, const std::vector<std::string>& args) {
  std::vector<std::string> argv_store;
  argv_store.push_back(binary);
  argv_store.insert(argv_store.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& a : argv_store) argv.push_back(a.data());
  argv.push_back(nullptr);
  const pid_t parent = getpid();
  pid_ = fork();
  if (pid_ < 0) throw std::runtime_error("fork failed: " + std::string(std::strerror(errno)));
  if (pid_ == 0) {
    // Child: die with the benchmark, keep stdout clean.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(127);
    const int devnull = open("/dev/null", O_WRONLY);
    if (devnull >= 0) dup2(devnull, STDOUT_FILENO);
    execv(argv[0], argv.data());
    std::fprintf(stderr, "perfbench: exec %s failed: %s\n", argv[0], std::strerror(errno));
    _exit(127);
  }
}

DaemonProcess::~DaemonProcess() { Stop(2000); }

double DaemonProcess::CpuSeconds() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
  std::string line;
  std::getline(in, line);
  // Fields after the parenthesized command name; utime and stime are the
  // 14th and 15th fields of the whole line.
  const size_t close = line.rfind(')');
  if (close == std::string::npos) return 0;
  std::istringstream rest(line.substr(close + 2));
  std::string field;
  unsigned long long utime = 0, stime = 0;
  for (int i = 3; i <= 15 && rest >> field; ++i) {
    if (i == 14) utime = std::stoull(field);
    if (i == 15) stime = std::stoull(field);
  }
  return static_cast<double>(utime + stime) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double DaemonProcess::PeakRssMb() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0;
}

bool DaemonProcess::Stop(int grace_ms) {
  if (pid_ < 0) return exited_clean_;
  kill(pid_, SIGTERM);
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::milliseconds(grace_ms);
  int status = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    const pid_t r = waitpid(pid_, &status, WNOHANG);
    if (r == pid_) {
      pid_ = -1;
      exited_clean_ = WIFEXITED(status) && WEXITSTATUS(status) == 0;
      return exited_clean_;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  kill(pid_, SIGKILL);
  waitpid(pid_, &status, 0);
  pid_ = -1;
  exited_clean_ = false;
  return false;
}

}  // namespace perfbench
