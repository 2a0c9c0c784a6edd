//===- perfbench/src/Harness.h - Daemons, /proc probes, spans ------------===//
//
// Part of the UNIT reproduction (CGO 2021). MIT license.
//
// The process-level plumbing the compile-service benchmark stands on:
// starting and stopping real unit_serve daemons, reading their CPU time,
// memory and thread counts from /proc, and the benchmark's own span
// recorder for the traced run.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_HARNESS_H
#define PERFBENCH_HARNESS_H

#include "server/Protocol.h"

#include <sys/types.h>

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace pb {

/// Monotonic seconds.
double now();

/// Linear-interpolated quantile (numpy's default) of \p V; 0 when empty.
double quantile(std::vector<double> V, double Q);
double median(std::vector<double> V);

/// What /proc says about one live process.
struct ProcSample {
  bool Ok = false;
  double CpuSeconds = 0; ///< utime + stime.
  double VmHwmKb = 0;    ///< Peak resident set.
  double VmRssKb = 0;
  int Threads = 0;
};
ProcSample sampleProc(pid_t Pid);

/// Where the benchmark keeps its binaries and per-run files. Every path
/// is relative to the checkout root (the working directory), so Unix
/// socket paths stay far below the sun_path limit.
struct Env {
  std::string BinDir;  ///< Holds unit_serve.
  std::string WorkDir; ///< Per-run scratch ("./.bench_build/...").
  std::string SecretFile;
  std::string Secret;
  unsigned DaemonThreads = 4;
};

struct DaemonConfig {
  std::string CacheFile; ///< Persisted cache (empty: none).
  bool ListenTcp = true; ///< Loopback TCP listener with the shared secret.
  std::vector<std::string> Peers;
};

/// One unit_serve child process. start() returns once the daemon answers
/// hello on its Unix socket; stop() asks it to shut down and reaps it.
class Daemon {
public:
  Daemon() = default;
  ~Daemon();
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;

  bool start(const Env &E, const DaemonConfig &Config, std::string *Err);
  bool stop(std::string *Err);

  pid_t pid() const { return Pid; }
  const std::string &socket() const { return Socket; }
  /// Loopback "127.0.0.1:port" of the TCP listener (empty without one).
  const std::string &tcpEndpoint() const { return TcpEndpoint; }
  std::optional<unit::Json> stats(std::string *Err);

private:
  void kill();
  pid_t Pid = -1;
  std::string Socket;
  std::string TcpEndpoint;
};

/// Kills and reaps every daemon still running (the exit path of a run
/// that cannot complete).
void killAllDaemons();

/// A counter read out of a stats reply by dotted path ("tuner.invocations").
double statNumber(const unit::Json &Stats, const std::string &Path);

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

/// The benchmark's own span recorder: spans are recorded around the calls
/// the benchmark makes into each layer, kept in memory, and written out
/// when the run ends. Disabled recorders record nothing.
class Tracer {
public:
  struct Rec {
    std::string Name;
    double Start = 0, End = 0;
    uint64_t Id = 0, Parent = 0, Request = 0;
  };

  explicit Tracer(bool On) : On(On) {}
  bool on() const { return On; }
  /// Turns recording on or off; returns the previous state. Call only
  /// while no other thread records.
  bool setOn(bool Enable) {
    bool Was = On;
    On = Enable;
    return Was;
  }

  /// Opens a span on the calling thread; end() closes the innermost one.
  void begin(const char *Name, uint64_t Request);
  void end();

  /// Self time (duration minus the time its child spans cover) of every
  /// span named \p Name, in seconds.
  std::vector<double> selfTimes(const std::string &Name) const;
  bool write(const std::string &Path, std::string *Err) const;

private:
  struct Open {
    uint64_t Id, Request;
    const char *Name;
    double Start;
    uint64_t Parent;
  };
  bool On;
  mutable std::mutex Mu;
  std::vector<Rec> Done;
  uint64_t NextId = 1;
  uint64_t NextRequest = 1;
  static thread_local std::vector<Open> Stack;
};

/// RAII span. \p Request 0 inherits the enclosing span's request id (a
/// root span with 0 gets a fresh one).
class Span {
public:
  Span(Tracer &T, const char *Name, uint64_t Request = 0)
      : T(T), Active(T.on()) {
    if (Active)
      T.begin(Name, Request);
  }
  ~Span() {
    if (Active)
      T.end();
  }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  Tracer &T;
  bool Active;
};

} // namespace pb

#endif // PERFBENCH_HARNESS_H
