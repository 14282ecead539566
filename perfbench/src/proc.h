// The reoptd child process: spawn, readiness, /proc accounting, shutdown.
#ifndef PERFBENCH_PROC_H_
#define PERFBENCH_PROC_H_

#include <sys/types.h>

#include <string>
#include <vector>

namespace perfbench {

class DaemonProcess {
 public:
  /// Spawns `binary` with `args`, its stdout discarded (the benchmark's own
  /// stdout carries the result). The child is killed if this process dies.
  DaemonProcess(const std::string& binary, const std::vector<std::string>& args);
  ~DaemonProcess();

  DaemonProcess(const DaemonProcess&) = delete;
  DaemonProcess& operator=(const DaemonProcess&) = delete;

  /// utime + stime of the child so far, in seconds (/proc/<pid>/stat).
  double CpuSeconds() const;
  /// The child's peak resident set (VmHWM), in MiB.
  double PeakRssMb() const;
  /// SIGTERM, then SIGKILL after `grace_ms`; always reaps the child.
  /// Returns true when the daemon exited cleanly on SIGTERM.
  bool Stop(int grace_ms = 10000);

 private:
  pid_t pid_ = -1;
  bool exited_clean_ = false;
};

}  // namespace perfbench

#endif  // PERFBENCH_PROC_H_
