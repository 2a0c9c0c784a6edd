//===- perfbench/src/Harness.cpp - Daemons, /proc probes, spans ----------===//
//
// Part of the UNIT reproduction (CGO 2021). MIT license.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "server/CompileClient.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>
#include <unordered_map>

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace unit;

namespace pb {

double now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(std::floor(Pos));
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  double Frac = Pos - static_cast<double>(Lo);
  return V[Lo] + (V[Hi] - V[Lo]) * Frac;
}

double median(std::vector<double> V) { return quantile(std::move(V), 0.5); }

ProcSample sampleProc(pid_t Pid) {
  ProcSample S;
  std::string Base = "/proc/" + std::to_string(Pid);
  std::ifstream Stat(Base + "/stat");
  std::string Line;
  if (!std::getline(Stat, Line))
    return S;
  // Fields after the parenthesized command name; utime and stime are the
  // 14th and 15th fields of the whole line.
  size_t Close = Line.rfind(')');
  if (Close == std::string::npos)
    return S;
  std::istringstream Fields(Line.substr(Close + 2));
  std::string Field;
  double Utime = 0, Stime = 0;
  for (int I = 3; Fields >> Field; ++I) {
    if (I == 14)
      Utime = std::atof(Field.c_str());
    if (I == 15) {
      Stime = std::atof(Field.c_str());
      break;
    }
  }
  S.CpuSeconds = (Utime + Stime) / static_cast<double>(sysconf(_SC_CLK_TCK));
  std::ifstream Status(Base + "/status");
  while (std::getline(Status, Line)) {
    if (Line.rfind("VmHWM:", 0) == 0)
      S.VmHwmKb = std::atof(Line.c_str() + 6);
    else if (Line.rfind("VmRSS:", 0) == 0)
      S.VmRssKb = std::atof(Line.c_str() + 6);
    else if (Line.rfind("Threads:", 0) == 0)
      S.Threads = std::atoi(Line.c_str() + 8);
  }
  S.Ok = true;
  return S;
}

//===----------------------------------------------------------------------===//
// Daemon
//===----------------------------------------------------------------------===//

namespace {
std::atomic<int> DaemonCounter{0};

/// Every daemon started and not yet reaped, for killAllDaemons().
std::mutex LiveMu;
std::vector<pid_t> Live;

void registerLive(pid_t P) {
  std::lock_guard<std::mutex> Lock(LiveMu);
  Live.push_back(P);
}

void unregisterLive(pid_t P) {
  std::lock_guard<std::mutex> Lock(LiveMu);
  Live.erase(std::remove(Live.begin(), Live.end(), P), Live.end());
}

void setErr(std::string *Err, const std::string &Msg) {
  if (Err)
    *Err = Msg;
}

/// Reaps \p Pid, waiting at most \p Seconds. True when it exited.
bool reap(pid_t Pid, double Seconds, int &Status) {
  double Deadline = now() + Seconds;
  while (true) {
    pid_t R = ::waitpid(Pid, &Status, WNOHANG);
    if (R == Pid)
      return true;
    if (R < 0)
      return false;
    if (now() > Deadline)
      return false;
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
}
} // namespace

Daemon::~Daemon() { kill(); }

void Daemon::kill() {
  if (Pid <= 0)
    return;
  ::kill(Pid, SIGKILL);
  int Status = 0;
  ::waitpid(Pid, &Status, 0);
  unregisterLive(Pid);
  Pid = -1;
}

void killAllDaemons() {
  std::vector<pid_t> Pids;
  {
    std::lock_guard<std::mutex> Lock(LiveMu);
    Pids.swap(Live);
  }
  for (pid_t P : Pids) {
    ::kill(P, SIGKILL);
    int Status = 0;
    ::waitpid(P, &Status, 0);
  }
}

bool Daemon::start(const Env &E, const DaemonConfig &Config,
                   std::string *Err) {
  int N = DaemonCounter.fetch_add(1);
  Socket = E.WorkDir + "/d" + std::to_string(N) + ".sock";
  std::string Log = E.WorkDir + "/d" + std::to_string(N) + ".log";
  std::vector<std::string> Args = {E.BinDir + "/unit_serve",
                                   "--socket",
                                   Socket,
                                   "--threads",
                                   std::to_string(E.DaemonThreads),
                                   "--persist-interval",
                                   "0"};
  if (!Config.CacheFile.empty()) {
    Args.push_back("--cache");
    Args.push_back(Config.CacheFile);
  }
  if (Config.ListenTcp) {
    Args.insert(Args.end(), {"--listen-tcp", "127.0.0.1:0", "--secret-file",
                             E.SecretFile});
  }
  for (const std::string &P : Config.Peers) {
    Args.push_back("--peer");
    Args.push_back(P);
  }
  std::vector<char *> Argv;
  for (std::string &A : Args)
    Argv.push_back(A.data());
  Argv.push_back(nullptr);

  pid_t Parent = ::getpid();
  Pid = ::fork();
  if (Pid < 0) {
    setErr(Err, std::string("fork failed: ") + std::strerror(errno));
    return false;
  }
  if (Pid == 0) {
    // The daemon dies with the benchmark, however the benchmark ends.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != Parent)
      ::_exit(127);
    int Fd = ::open(Log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (Fd >= 0) {
      ::dup2(Fd, 1);
      ::dup2(Fd, 2);
      ::close(Fd);
    }
    ::execv(Argv[0], Argv.data());
    ::_exit(127);
  }
  registerLive(Pid);

  // Served = connected and answered hello.
  double Deadline = now() + 60;
  while (true) {
    int Status = 0;
    if (::waitpid(Pid, &Status, WNOHANG) == Pid) {
      unregisterLive(Pid);
      Pid = -1;
      setErr(Err, "unit_serve exited during start-up (see " + Log + ")");
      return false;
    }
    CompileClient C;
    if (C.connect(Socket) && C.hello("perfbench-probe")) {
      if (Config.ListenTcp) {
        std::optional<Json> S = C.stats();
        if (!S) {
          setErr(Err, "unit_serve answered no stats");
          return false;
        }
        TcpEndpoint = "127.0.0.1:" +
                      std::to_string(static_cast<int64_t>(
                          statNumber(*S, "fabric.tcp_port")));
      }
      return true;
    }
    if (now() > Deadline) {
      setErr(Err, "unit_serve did not come up within 60 s");
      kill();
      return false;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
}

bool Daemon::stop(std::string *Err) {
  if (Pid <= 0)
    return true;
  {
    CompileClient C;
    std::string E;
    if (!C.connect(Socket, &E) || !C.shutdownServer(&E)) {
      setErr(Err, "shutdown of " + Socket + " failed: " + E);
      kill();
      return false;
    }
  }
  int Status = 0;
  if (!reap(Pid, 60, Status)) {
    setErr(Err, "unit_serve did not exit within 60 s of shutdown");
    kill();
    return false;
  }
  unregisterLive(Pid);
  Pid = -1;
  if (!WIFEXITED(Status) || WEXITSTATUS(Status) != 0) {
    setErr(Err, "unit_serve exited abnormally (status " +
                    std::to_string(Status) + ")");
    return false;
  }
  return true;
}

std::optional<Json> Daemon::stats(std::string *Err) {
  CompileClient C;
  if (!C.connect(Socket, Err))
    return std::nullopt;
  return C.stats(false, Err);
}

double statNumber(const Json &Stats, const std::string &Path) {
  const Json *Cur = &Stats;
  size_t Pos = 0;
  while (Cur) {
    size_t Dot = Path.find('.', Pos);
    Cur = Cur->get(Path.substr(Pos, Dot - Pos));
    if (Dot == std::string::npos)
      break;
    Pos = Dot + 1;
  }
  return Cur && Cur->isNumber() ? Cur->asNumber() : 0;
}

//===----------------------------------------------------------------------===//
// Tracer
//===----------------------------------------------------------------------===//

thread_local std::vector<Tracer::Open> Tracer::Stack;

void Tracer::begin(const char *Name, uint64_t Request) {
  uint64_t Parent = Stack.empty() ? 0 : Stack.back().Id;
  uint64_t Id;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Id = NextId++;
    if (Request == 0)
      Request = Stack.empty() ? NextRequest++ : Stack.back().Request;
  }
  Stack.push_back(Open{Id, Request, Name, now(), Parent});
}

void Tracer::end() {
  double End = now();
  Open O = Stack.back();
  Stack.pop_back();
  std::lock_guard<std::mutex> Lock(Mu);
  Done.push_back(Rec{O.Name, O.Start, End, O.Id, O.Parent, O.Request});
}

std::vector<double> Tracer::selfTimes(const std::string &Name) const {
  std::lock_guard<std::mutex> Lock(Mu);
  std::unordered_map<uint64_t, double> ChildTime;
  for (const Rec &R : Done)
    if (R.Parent)
      ChildTime[R.Parent] += R.End - R.Start;
  std::vector<double> Out;
  for (const Rec &R : Done)
    if (R.Name == Name) {
      auto It = ChildTime.find(R.Id);
      Out.push_back(R.End - R.Start - (It == ChildTime.end() ? 0 : It->second));
    }
  return Out;
}

bool Tracer::write(const std::string &Path, std::string *Err) const {
  std::lock_guard<std::mutex> Lock(Mu);
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F) {
    setErr(Err, "cannot write " + Path);
    return false;
  }
  std::fprintf(F, "[\n");
  for (size_t I = 0; I < Done.size(); ++I) {
    const Rec &R = Done[I];
    std::fprintf(F,
                 "{\"name\":\"%s\",\"start\":%.9f,\"end\":%.9f,\"id\":%llu,"
                 "\"parent\":%llu,\"request\":%llu}%s\n",
                 R.Name.c_str(), R.Start, R.End,
                 static_cast<unsigned long long>(R.Id),
                 static_cast<unsigned long long>(R.Parent),
                 static_cast<unsigned long long>(R.Request),
                 I + 1 < Done.size() ? "," : "");
  }
  std::fprintf(F, "]\n");
  return std::fclose(F) == 0;
}

} // namespace pb
