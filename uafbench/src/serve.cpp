// The serve_mixed workload: analyze requests (80% repeats of a hot set
// pre-filled into a cache dir, 20% never-seen programs). The timed run
// replays a fixed request list through Server::handleLine on a server
// recovered from that cache dir. The traced run sends the same mix to a
// chpl-uaf-serve daemon, spawned as its own process, over its Unix socket
// at an open-loop rate, then replays it in-process through the service
// layers' public functions.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "common.h"
#include "layers.h"
#include "speed.h"
#include "src/analysis/pipeline.h"
#include "src/corpus/generator.h"
#include "src/service/cache.h"
#include "src/service/disk_cache.h"
#include "src/service/protocol.h"
#include "src/service/server.h"
#include "src/support/json.h"
#include "src/support/rng.h"

extern char** environ;

namespace uafbench {

namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Workload constants (README.md, "serve_mixed").

/// Hot-set programs pre-filled into the daemon's cache dir.
constexpr std::size_t kHotSet = 4096;
/// Share of requests that carry a never-seen program, per mille.
constexpr unsigned kMissPermille = 200;
/// Offered rate of the traced run's live phase.
constexpr double kNominalRps = 1000;
/// Share of --seconds the traced run spends at the nominal rate; the
/// in-process replays of the same requests take most of the rest.
constexpr double kNominalShare = 0.8;
/// Shortest nominal phase of a traced run: its misses (20%) must leave ten
/// samples beyond their p99.
constexpr double kTracedMinSeconds = 6;
/// A live phase whose generator ran later than this (p99) did not offer
/// the nominal rate; the run notes its socket figures as invalid.
constexpr double kGeneratorLateLimitUs = 2000;
/// Requests of one timed sweep: the p99 has 200 samples beyond it.
constexpr std::size_t kSweepRequests = 20000;
/// Timed sweeps made even when one sweep outlasts --seconds.
constexpr int kMinSweeps = 3;
/// Cache-dir recoveries timed for setup_s before the sweeps; each sweep's
/// server adds one more (the median of all is reported).
constexpr int kSetupRepeats = 40;
/// Measured work between two host-speed samples (speed.h).
constexpr double kGaugeEverySeconds = 4e-3;
/// Generator connections of the live phase. A request goes out on an idle
/// connection when there is one: responses on one connection come back in
/// request order, so pipelining everything onto a couple of connections
/// would turn each slow miss into a stall for every request queued behind
/// it.
constexpr int kConnections = 16;
constexpr double kDrainTimeoutSeconds = 30;

std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// The request stream.

struct StreamRequest {
  std::size_t program = 0;
  bool miss = false;
  std::string line;
};

struct Phase {
  std::size_t begin = 0;  ///< first request index
  std::size_t end = 0;
  std::vector<double> offsets_s;  ///< scheduled send time of each request
};

/// Programs in order of first use (hot set first, then each miss as the
/// stream draws it) and every request built so far. Hot and miss programs
/// come from one calibrated-generator stream, so no miss repeats a hot
/// program; the run seed draws arrivals, hit/miss and which hot program.
class Stream {
 public:
  explicit Stream(std::uint64_t seed)
      : rng_(streamSeed(seed, "serve")), gen_(kRecordedCorpusSeed) {
    programs_.reserve(kHotSet);
    for (std::size_t i = 0; i < kHotSet; ++i) takeProgram();
  }

  Phase addPhase(double rate, double seconds) {
    Phase phase;
    phase.begin = requests_.size();
    double t = 0;
    for (;;) {
      // Poisson arrivals: exponential gaps with mean 1/rate.
      const double u =
          (static_cast<double>(rng_.next() >> 11) + 0.5) * 0x1.0p-53;
      t += -std::log(u) / rate;
      if (t >= seconds) break;
      (void)addRequest();
      phase.offsets_s.push_back(t);
    }
    phase.end = requests_.size();
    return phase;
  }

  /// Appends one request (a hot repeat or a miss) and returns its index.
  std::size_t addRequest() {
    StreamRequest r;
    r.miss = rng_.below(1000) < kMissPermille;
    r.program = r.miss ? takeProgram() : rng_.below(kHotSet);
    r.line = analyzeLine(requests_.size() + 1, programs_[r.program]);
    requests_.push_back(std::move(r));
    return requests_.size() - 1;
  }

  [[nodiscard]] const std::vector<Program>& programs() const {
    return programs_;
  }
  [[nodiscard]] const std::vector<StreamRequest>& requests() const {
    return requests_;
  }

  static std::string analyzeLine(std::size_t id, const Program& p) {
    return "{\"op\":\"analyze\",\"id\":" + std::to_string(id) +
           ",\"name\":\"" + cuaf::jsonEscape(p.name) + "\",\"source\":\"" +
           cuaf::jsonEscape(p.source) + "\"}";
  }

 private:
  std::size_t takeProgram() {
    cuaf::corpus::GeneratedProgram p = gen_.next();
    programs_.push_back({std::move(p.name), std::move(p.source)});
    return programs_.size() - 1;
  }

  cuaf::Rng rng_;
  cuaf::corpus::ProgramGenerator gen_;
  std::vector<Program> programs_;
  std::vector<StreamRequest> requests_;
};

// ---------------------------------------------------------------------------
// Scratch directory, daemon process and socket helpers.

/// A private directory under the work dir, removed with its contents.
class TempDir {
 public:
  explicit TempDir(const std::string& parent)
      : path_(parent + "/serve-" + std::to_string(::getpid())) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  [[nodiscard]] std::string sub(const std::string& name) const {
    return path_ + "/" + name;
  }

 private:
  std::string path_;
};

/// Copies a cache dir's segment files (not its lock file) into `to`.
void copyCacheDir(const std::string& from, const std::string& to) {
  fs::remove_all(to);
  fs::create_directories(to);
  for (const fs::directory_entry& e : fs::directory_iterator(from)) {
    if (e.is_regular_file() && e.path().filename() != ".lock") {
      fs::copy_file(e.path(), fs::path(to) / e.path().filename());
    }
  }
}

int connectUnix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool writeAll(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

/// One request/response exchange on a fresh blocking connection; gives up
/// after 30 s without a reply.
std::string roundTrip(const std::string& socket_path, const std::string& line) {
  const int fd = connectUnix(socket_path);
  if (fd < 0) throw std::runtime_error("cannot connect to " + socket_path);
  const timeval timeout{30, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  std::string reply;
  if (writeAll(fd, line + "\n")) {
    char buf[4096];
    for (;;) {
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;
      reply.append(buf, static_cast<std::size_t>(n));
      if (reply.find('\n') != std::string::npos) break;
    }
  }
  ::close(fd);
  const std::size_t nl = reply.find('\n');
  if (nl == std::string::npos) {
    throw std::runtime_error("no reply from daemon to " + line);
  }
  reply.resize(nl);
  return reply;
}

/// A chpl-uaf-serve process on a Unix socket. The destructor kills and
/// reaps it if it is still running.
class Daemon {
 public:
  Daemon(const std::string& binary, const std::string& socket_path,
         const std::string& cache_dir, const std::string& log_path)
      : socket_(socket_path) {
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, 0, "/dev/null", O_RDONLY, 0);
    posix_spawn_file_actions_addopen(&actions, 1, log_path.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    posix_spawn_file_actions_adddup2(&actions, 1, 2);
    std::vector<std::string> args = {binary,      "--socket",    socket_path,
                                     "--jobs",    "2",           "--cache-dir",
                                     cache_dir};
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    spawned_ = Clock::now();
    const int rc = posix_spawn(&pid_, binary.c_str(), &actions, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) {
      pid_ = -1;
      throw std::runtime_error("cannot spawn " + binary + ": " +
                               std::strerror(rc));
    }
  }

  ~Daemon() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Seconds from spawn to the first `ping` reply (the daemon recovers its
  /// cache dir before it binds the socket).
  double waitReady() {
    const Clock::time_point give_up = spawned_ + std::chrono::seconds(30);
    for (;;) {
      const int fd = connectUnix(socket_);
      if (fd >= 0) {
        ::close(fd);
        break;
      }
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        throw std::runtime_error("daemon exited during start-up");
      }
      if (Clock::now() > give_up) {
        throw std::runtime_error("daemon did not bind " + socket_);
      }
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    const std::string reply = roundTrip(socket_, "{\"op\":\"ping\",\"id\":0}");
    const double seconds = secondsBetween(spawned_, Clock::now());
    if (reply.find("\"status\":\"ok\"") == std::string::npos) {
      throw std::runtime_error("bad ping reply: " + reply);
    }
    return seconds;
  }

  [[nodiscard]] std::string request(const std::string& line) const {
    return roundTrip(socket_, line);
  }

  /// Sends `shutdown` and reaps the process; false if it had to be killed
  /// or exited non-zero.
  bool shutdown() {
    bool ok = true;
    try {
      ok = request("{\"op\":\"shutdown\",\"id\":0}")
               .find("\"status\":\"ok\"") != std::string::npos;
    } catch (const std::exception&) {
      ok = false;
    }
    const Clock::time_point give_up = Clock::now() + std::chrono::seconds(10);
    int status = 0;
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
      if (Clock::now() > give_up) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        ok = false;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    pid_ = -1;
    return ok && WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }

 private:
  std::string socket_;
  pid_t pid_ = -1;
  Clock::time_point spawned_;
};

// ---------------------------------------------------------------------------
// Open-loop load generator: the calling thread sends each request at its
// scheduled time on the least-busy of kConnections connections; one receiver
// thread matches replies to requests (each connection answers in order).

struct Outcome {
  std::int64_t sched_ns = 0;
  std::int64_t sent_ns = 0;
  std::int64_t recv_ns = 0;  ///< 0 while unanswered
  std::string response;

  [[nodiscard]] bool answered() const { return recv_ns != 0; }
  [[nodiscard]] bool ok() const {
    return std::string_view(response).substr(0, 80).find(
               "\"status\":\"ok\"") != std::string_view::npos;
  }
  [[nodiscard]] double latencyUs() const {
    return static_cast<double>(recv_ns - sched_ns) / 1e3;
  }
  [[nodiscard]] double lateUs() const {
    return static_cast<double>(sent_ns - sched_ns) / 1e3;
  }
};

class LoadGenerator {
 public:
  explicit LoadGenerator(const std::string& socket_path) {
    for (Connection& c : conns_) {
      c.fd = connectUnix(socket_path);
      if (c.fd < 0) {
        closeAll();
        throw std::runtime_error("cannot connect the generator");
      }
      ::fcntl(c.fd, F_SETFL, ::fcntl(c.fd, F_GETFL) | O_NONBLOCK);
    }
    receiver_ = std::thread([this] { receiveLoop(); });
  }

  ~LoadGenerator() { stop(); }
  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;

  /// Sends the phase's requests on schedule.
  void runPhase(const Stream& stream, const Phase& phase) {
    const std::int64_t start = nowNs() + 1'000'000;  // 1 ms to settle
    for (std::size_t i = phase.begin; i < phase.end; ++i) {
      const std::int64_t due =
          start + static_cast<std::int64_t>(
                      phase.offsets_s[i - phase.begin] * 1e9);
      waitUntil(due);
      outcomes_.emplace_back();
      Outcome& o = outcomes_.back();
      o.sched_ns = due;
      o.sent_ns = nowNs();
      Connection& c = pickConnection(i);
      {
        std::lock_guard<std::mutex> lock(c.mutex);
        c.pending.push_back(&o);
      }
      c.in_flight.fetch_add(1, std::memory_order_relaxed);
      c.out += stream.requests()[i].line;
      c.out += '\n';
      ++sent_;
      flush(c);
    }
  }

  /// Flushes and waits until every sent request is answered; false on
  /// timeout or a broken connection.
  bool drain() {
    const std::int64_t give_up =
        nowNs() + static_cast<std::int64_t>(kDrainTimeoutSeconds * 1e9);
    while (received_.load(std::memory_order_acquire) < sent_) {
      if (broken_.load() || nowNs() > give_up) return false;
      waitUntil(nowNs() + 200'000);
    }
    return true;
  }

  /// Stops the receiver; outcomes are final afterwards.
  void stop() {
    if (!receiver_.joinable()) return;
    stop_.store(true);
    receiver_.join();
    closeAll();
  }

  /// Outcome of request i of the stream (requests go out in stream order);
  /// read only after drain() returned true or after stop().
  [[nodiscard]] const Outcome& outcome(std::size_t i) const {
    return outcomes_[i];
  }

 private:
  struct Connection {
    int fd = -1;
    std::string out;  ///< bytes not yet accepted by the socket (sender only)
    std::mutex mutex;
    std::deque<Outcome*> pending;  ///< sent, unanswered, in send order
    std::atomic<std::size_t> in_flight{0};
    std::string in;  ///< receiver only
  };

  void closeAll() {
    for (Connection& c : conns_) {
      if (c.fd >= 0) ::close(c.fd);
      c.fd = -1;
    }
  }

  /// The first idle connection at or after a rotating start, else the
  /// one with the fewest requests in flight.
  Connection& pickConnection(std::size_t request) {
    Connection* best = nullptr;
    std::size_t best_load = 0;
    for (int k = 0; k < kConnections; ++k) {
      Connection& c =
          conns_[(request + static_cast<std::size_t>(k)) % kConnections];
      const std::size_t load = c.in_flight.load(std::memory_order_relaxed);
      if (load == 0) return c;
      if (best == nullptr || load < best_load) {
        best = &c;
        best_load = load;
      }
    }
    return *best;
  }

  void flush(Connection& c) {
    while (!c.out.empty()) {
      const ssize_t n = ::send(c.fd, c.out.data(), c.out.size(), MSG_NOSIGNAL);
      if (n > 0) {
        c.out.erase(0, static_cast<std::size_t>(n));
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      broken_.store(true);
      c.out.clear();
      return;
    }
  }

  /// Sleeps until `due`, flushing unsent bytes whenever a socket drains.
  void waitUntil(std::int64_t due) {
    for (;;) {
      const std::int64_t now = nowNs();
      if (now >= due) return;
      pollfd fds[kConnections];
      nfds_t n = 0;
      for (Connection& c : conns_) {
        if (!c.out.empty()) fds[n++] = {c.fd, POLLOUT, 0};
      }
      if (n == 0) {
        timespec ts{static_cast<time_t>(due / 1'000'000'000),
                    static_cast<long>(due % 1'000'000'000)};
        ::clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr);
        continue;
      }
      const std::int64_t wait = due - now;
      timespec ts{static_cast<time_t>(wait / 1'000'000'000),
                  static_cast<long>(wait % 1'000'000'000)};
      if (::ppoll(fds, n, &ts, nullptr) > 0) {
        for (Connection& c : conns_) flush(c);
      }
    }
  }

  void receiveLoop() {
    char buf[1 << 16];
    while (!stop_.load()) {
      pollfd fds[kConnections];
      for (int i = 0; i < kConnections; ++i) {
        fds[i] = {conns_[i].fd, POLLIN, 0};
      }
      if (::poll(fds, kConnections, 20) <= 0) continue;
      for (int i = 0; i < kConnections; ++i) {
        if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        Connection& c = conns_[i];
        const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
        if (n == 0 || (n < 0 && errno != EAGAIN && errno != EINTR)) {
          broken_.store(true);
          return;
        }
        if (n < 0) continue;
        const std::int64_t at = nowNs();
        c.in.append(buf, static_cast<std::size_t>(n));
        std::size_t pos = 0;
        for (std::size_t nl; (nl = c.in.find('\n', pos)) != std::string::npos;
             pos = nl + 1) {
          Outcome* o = nullptr;
          {
            std::lock_guard<std::mutex> lock(c.mutex);
            if (c.pending.empty()) {
              broken_.store(true);  // a reply nobody asked for
              return;
            }
            o = c.pending.front();
            c.pending.pop_front();
            c.in_flight.fetch_sub(1, std::memory_order_relaxed);
          }
          o->response.assign(c.in, pos, nl - pos);
          o->recv_ns = at;
          received_.fetch_add(1, std::memory_order_release);
        }
        c.in.erase(0, pos);
      }
    }
  }

  Connection conns_[kConnections];
  /// Stable addresses: the receiver fills entries the sender appended.
  std::deque<Outcome> outcomes_;
  std::size_t sent_ = 0;
  std::atomic<std::size_t> received_{0};
  std::atomic<bool> stop_{false};
  std::atomic<bool> broken_{false};
  std::thread receiver_;
};

// ---------------------------------------------------------------------------
// Response checks.

/// Warning sites of an analyze response's report, in report order.
bool responseSites(const std::string& response, std::vector<WarningSite>& out) {
  cuaf::service::JsonValue doc;
  std::string error;
  if (!cuaf::service::parseJson(response, doc, error)) return false;
  const cuaf::service::JsonValue* result = doc.find("result");
  const cuaf::service::JsonValue* report =
      result != nullptr ? result->find("report") : nullptr;
  const cuaf::service::JsonValue* warnings =
      report != nullptr ? report->find("warnings") : nullptr;
  if (warnings == nullptr) return false;
  for (const cuaf::service::JsonValue& w : warnings->array) {
    const cuaf::service::JsonValue* line = w.find("line");
    const cuaf::service::JsonValue* column = w.find("column");
    const cuaf::service::JsonValue* variable = w.find("variable");
    if (line == nullptr || column == nullptr || variable == nullptr) {
      return false;
    }
    out.push_back({static_cast<std::uint32_t>(line->number),
                   static_cast<std::uint32_t>(column->number),
                   variable->string});
  }
  return true;
}

/// Warning sites of a direct Pipeline::runSource on the same source.
std::vector<WarningSite> pipelineSites(const Program& p) {
  cuaf::Pipeline pipeline;
  std::vector<WarningSite> sites;
  if (!pipeline.runSource(p.name, p.source)) return sites;
  for (const cuaf::ProcAnalysis& pa : pipeline.analysis().procs) {
    for (const cuaf::UafWarning& w : pa.warnings) {
      sites.push_back({w.access_loc.line, w.access_loc.column, w.var_name});
    }
  }
  return sites;
}

/// Checks each response of requests [0, responses.size()) against a
/// serial Server::handleLine reference without a cache dir, which analyzes
/// every program afresh (modulo the volatile fields), and each distinct
/// program's warnings against a direct Pipeline run.
void checkResponses(const Stream& stream,
                    const std::vector<std::string>& responses,
                    RunReport& report) {
  cuaf::service::Server reference;
  std::vector<bool> sites_checked(stream.programs().size(), false);
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < responses.size(); ++i) {
    const StreamRequest& r = stream.requests()[i];
    const std::string expected = reference.handleLine(r.line);
    const std::string& response = responses[i];
    if (response.substr(0, 80).find("\"status\":\"ok\"") ==
        std::string::npos) {
      report.fail("request " + std::to_string(i + 1) +
                  " failed: " + response.substr(0, 160));
      continue;
    }
    if (cuaf::service::stripVolatile(response) !=
        cuaf::service::stripVolatile(expected)) {
      if (++mismatches <= 5) {
        report.fail("request " + std::to_string(i + 1) +
                    " differs from the in-process reference");
      } else {
        report.fail("further reference mismatch");
      }
      continue;
    }
    if (sites_checked[r.program]) continue;
    sites_checked[r.program] = true;
    report.attempt();
    std::vector<WarningSite> got;
    if (!responseSites(response, got) ||
        got != pipelineSites(stream.programs()[r.program])) {
      report.fail("warnings of " + stream.programs()[r.program].name +
                  " differ from a direct Pipeline run");
    }
  }
}

/// Counters read through the daemon's public `stats` op.
struct DaemonStats {
  double hits = 0;
  double misses = 0;
  double evictions = 0;
  double analyzed = 0;
  double overloaded = 0;
  double disk_appends = 0;
  double pipeline_depth_hwm = 0;
};

DaemonStats readStats(const Daemon& daemon) {
  const std::string reply = daemon.request("{\"op\":\"stats\",\"id\":0}");
  cuaf::service::JsonValue doc;
  std::string error;
  if (!cuaf::service::parseJson(reply, doc, error)) {
    throw std::runtime_error("unparseable stats reply");
  }
  const cuaf::service::JsonValue* stats = doc.find("stats");
  if (stats == nullptr) throw std::runtime_error("stats reply without stats");
  auto field = [&](const char* name) {
    const cuaf::service::JsonValue* v = stats->find(name);
    return v != nullptr ? v->number : 0.0;
  };
  DaemonStats s;
  s.hits = field("hits");
  s.misses = field("misses");
  s.evictions = field("evictions");
  s.analyzed = field("analyzed");
  s.overloaded = field("overloaded");
  s.disk_appends = field("disk_appends");
  s.pipeline_depth_hwm = field("pipeline_depth_hwm");
  return s;
}

/// Pre-fills `dir` with the hot set through an in-process Server on the
/// same cache-dir code path the daemon recovers from.
void prefill(const Stream& stream, const std::string& dir) {
  cuaf::service::ServerOptions options;
  options.cache_dir = dir;
  cuaf::service::Server server(options);
  // Durability of the pre-fill itself is not measured.
  server.diskCache()->setFsyncAppends(false);
  for (std::size_t i = 0; i < kHotSet; ++i) {
    const std::string reply =
        server.handleLine(Stream::analyzeLine(0, stream.programs()[i]));
    if (reply.find("\"status\":\"ok\"") == std::string::npos) {
      throw std::runtime_error("pre-fill failed: " + reply.substr(0, 160));
    }
  }
}

std::vector<double> lateness(const LoadGenerator& load, const Phase& phase) {
  std::vector<double> out;
  for (std::size_t i = phase.begin; i < phase.end; ++i) {
    out.push_back(load.outcome(i).lateUs());
  }
  return out;
}

// ---------------------------------------------------------------------------
// Traced in-process replays.

struct ReplayResult {
  std::vector<std::string> responses;
  double seconds = 0;
};

/// Replays requests [begin, end) through the service layers' public
/// functions, mirroring Server::handleAnalyze on the cache-dir path: one
/// "request" span per request with children for each layer call.
ReplayResult decomposedReplay(const Stream& stream, std::size_t begin,
                              std::size_t end, const std::string& cache_dir,
                              Tracer& tracer) {
  ReplayResult out;
  const cuaf::service::ServerOptions defaults;
  cuaf::service::ResultCache cache(defaults.cache_budget_bytes);
  const Clock::time_point start = Clock::now();
  cuaf::service::DiskCache disk(cache_dir);
  {
    SpanScope s(tracer, "service.disk_recover", 0);
    disk.load([&](std::uint64_t key, std::string_view payload) {
      if (!cuaf::AnalysisSnapshot::deserialize(payload)) return false;
      cache.insert(key, std::string(payload));
      return true;
    });
  }
  for (std::size_t i = begin; i < end; ++i) {
    SpanScope request_span(tracer, "request", i);
    const Clock::time_point t0 = Clock::now();
    std::variant<cuaf::service::Request, cuaf::service::ProtocolError> parsed;
    {
      SpanScope s(tracer, "service.decode", i);
      parsed = cuaf::service::parseRequest(stream.requests()[i].line,
                                           defaults.max_request_bytes);
    }
    const auto* request = std::get_if<cuaf::service::Request>(&parsed);
    if (request == nullptr || request->items.size() != 1) {
      out.responses.emplace_back();
      continue;
    }
    const cuaf::service::SourceItem& item = request->items.front();
    cuaf::service::ItemResult result;
    result.name = item.name;
    {
      SpanScope s(tracer, "service.key", i);
      result.key =
          cuaf::analysisCacheKey(item.name, item.source, request->options);
    }
    std::optional<std::string> payload;
    {
      SpanScope s(tracer, "service.lookup", i);
      payload = cache.lookup(result.key);
    }
    if (payload) {
      SpanScope s(tracer, "analysis.deserialize", i);
      std::optional<cuaf::AnalysisSnapshot> snap =
          cuaf::AnalysisSnapshot::deserialize(*payload);
      if (snap) result.snapshot = std::move(*snap);
      result.cached = true;
    } else {
      std::string fresh;
      {
        SpanScope s(tracer, "analysis.snapshot", i);
        result.snapshot =
            cuaf::analyzeToSnapshot(item.name, item.source, request->options);
        fresh = result.snapshot.serialize();
      }
      {
        SpanScope s(tracer, "service.disk_append", i);
        (void)disk.append(result.key, fresh);
      }
      {
        SpanScope s(tracer, "service.insert", i);
        cache.insert(result.key, std::move(fresh));
      }
    }
    SpanScope s(tracer, "service.encode", i);
    out.responses.push_back(cuaf::service::renderAnalyzeResponse(
        request->id, result,
        static_cast<std::uint64_t>(microsBetween(t0, Clock::now()))));
  }
  out.seconds = secondsBetween(start, Clock::now());
  return out;
}

/// Replays requests [begin, end) through Server::handleLine on a server
/// recovered from `cache_dir`, one "service.handle" span per request.
ReplayResult handleLineReplay(const Stream& stream, std::size_t begin,
                              std::size_t end, const std::string& cache_dir,
                              Tracer& tracer) {
  ReplayResult out;
  cuaf::service::ServerOptions options;
  options.cache_dir = cache_dir;
  cuaf::service::Server server(options);
  const Clock::time_point start = Clock::now();
  for (std::size_t i = begin; i < end; ++i) {
    SpanScope s(tracer, "service.handle", i);
    out.responses.push_back(server.handleLine(stream.requests()[i].line));
  }
  out.seconds = secondsBetween(start, Clock::now());
  return out;
}

void runTraced(const Args& args, Stream& stream, double gen_ms,
               const TempDir& tmp, const std::string& pristine,
               RunReport& report) {
  // Long enough for supported p99s over the misses alone.
  const double nominal_s =
      std::max(kTracedMinSeconds, kNominalShare * args.seconds);
  std::map<std::string, double> v;
  v["corpus.gen_ms"] = gen_ms;

  // Live phase: socket latencies and the daemon's own counters.
  copyCacheDir(pristine, tmp.sub("live"));
  Daemon daemon(args.serve_binary, tmp.sub("d.sock"), tmp.sub("live"),
                tmp.sub("daemon.log"));
  (void)daemon.waitReady();
  Phase phase = stream.addPhase(kNominalRps, nominal_s);
  {
    LoadGenerator load(tmp.sub("d.sock"));
    load.runPhase(stream, phase);
    if (!load.drain()) throw std::runtime_error("daemon stopped answering");
    load.stop();
    const DaemonStats stats = readStats(daemon);
    if (!daemon.shutdown()) {
      report.fail("daemon did not shut down cleanly");
    }
    v["service.hit_ratio"] =
        stats.hits + stats.misses > 0 ? stats.hits / (stats.hits + stats.misses)
                                      : 0.0;
    v["service.evictions"] = stats.evictions;
    v["service.analyzed"] = stats.analyzed;
    v["service.overloaded"] = stats.overloaded;
    v["service.disk_appends"] = stats.disk_appends;
    v["net.pipeline_depth_hwm"] = stats.pipeline_depth_hwm;
    v["bench.generator_late_us_p99"] = checkedPercentile(
        report, "bench.generator_late_us_p99", lateness(load, phase), 0.99);
    report.note("live_phase",
                v["bench.generator_late_us_p99"] > kGeneratorLateLimitUs
                    ? "invalid: the generator ran late beyond the limit, so "
                      "the net.* figures do not hold at the nominal rate"
                    : "valid");

    // Reference: Server::handleLine, serially, on the pre-filled cache.
    copyCacheDir(pristine, tmp.sub("handle"));
    Tracer handle_spans(true);
    const ReplayResult handled = handleLineReplay(
        stream, phase.begin, phase.end, tmp.sub("handle"), handle_spans);

    // The decomposed copy of the same path: a warm-up pass, then untraced
    // and traced passes on fresh copies of the cache dir.
    Tracer off(false);
    copyCacheDir(pristine, tmp.sub("warm"));
    (void)decomposedReplay(stream, phase.begin, phase.end, tmp.sub("warm"),
                           off);
    copyCacheDir(pristine, tmp.sub("plain"));
    const ReplayResult plain =
        decomposedReplay(stream, phase.begin, phase.end, tmp.sub("plain"), off);
    copyCacheDir(pristine, tmp.sub("traced"));
    Tracer spans(true);
    const ReplayResult traced =
        decomposedReplay(stream, phase.begin, phase.end, tmp.sub("traced"),
                         spans);

    std::vector<double> overhead_us;
    const std::map<std::string, std::vector<double>> handle_us =
        itemDurationsUs(handle_spans.spans());
    const std::vector<double>& per_request = handle_us.at("service.handle");
    for (std::size_t i = phase.begin; i < phase.end; ++i) {
      const std::size_t k = i - phase.begin;
      const Outcome& o = load.outcome(i);
      report.attempt();
      if (!o.answered() || !o.ok()) {
        report.fail("request " + std::to_string(i + 1) +
                    " failed on the socket");
        continue;
      }
      // Decomposition check: the benchmark's copy of the analyze path must
      // answer exactly as Server::handleLine and as the live daemon do.
      const std::string reference =
          cuaf::service::stripVolatile(handled.responses[k]);
      if (cuaf::service::stripVolatile(traced.responses[k]) != reference ||
          cuaf::service::stripVolatile(plain.responses[k]) != reference) {
        report.fail("decomposition check: request " + std::to_string(i + 1) +
                    " differs from Server::handleLine");
      }
      if (cuaf::service::stripVolatile(o.response) != reference) {
        report.fail("request " + std::to_string(i + 1) +
                    " differs from the in-process reference");
      }
      overhead_us.push_back(o.latencyUs() - per_request[k]);
    }

    const std::map<std::string, std::vector<double>> per_span =
        itemDurationsUs(spans.spans());
    auto samples = [&](const char* name) {
      auto it = per_span.find(name);
      return it == per_span.end() ? std::vector<double>{} : it->second;
    };
    v["analysis.snapshot_us_p50"] = checkedPercentile(
        report, "analysis.snapshot_us_p50", samples("analysis.snapshot"), 0.5);
    v["service.decode_us_p50"] = checkedPercentile(
        report, "service.decode_us_p50", samples("service.decode"), 0.5);
    v["service.encode_us_p50"] = checkedPercentile(
        report, "service.encode_us_p50", samples("service.encode"), 0.5);
    v["service.key_us_p50"] = checkedPercentile(report, "service.key_us_p50",
                                              samples("service.key"), 0.5);
    v["service.lookup_us_p50"] = checkedPercentile(
        report, "service.lookup_us_p50", samples("service.lookup"), 0.5);
    v["service.disk_append_us_p99"] =
        checkedPercentile(report, "service.disk_append_us_p99",
                        samples("service.disk_append"), 0.99);
    const std::vector<double> recover = samples("service.disk_recover");
    v["service.disk_recover_ms"] = recover.empty() ? 0.0 : recover[0] / 1e3;
    v["service.handle_us_p50"] =
        checkedPercentile(report, "service.handle_us_p50", per_request, 0.5);
    v["service.handle_us_p99"] =
        checkedPercentile(report, "service.handle_us_p99", per_request, 0.99);
    v["net.overhead_us_p50"] =
        checkedPercentile(report, "net.overhead_us_p50", overhead_us, 0.5);
    v["net.overhead_us_p99"] =
        checkedPercentile(report, "net.overhead_us_p99", overhead_us, 0.99);
    v["bench.trace_overhead_pct"] =
        100.0 * (traced.seconds - plain.seconds) / plain.seconds;
    const std::string path = spanPath(args.workload);
    if (!spans.writeJsonLines(path)) report.fail("cannot write " + path);
  }

  // Where a miss's analysis time goes: the misses of the phase, layer by
  // layer with the service's default (static) options.
  Tracer layer_spans(true);
  LayerCounters counters;
  LayerConfig config;
  std::size_t misses = 0;
  for (std::size_t i = phase.begin; i < phase.end; ++i) {
    const StreamRequest& r = stream.requests()[i];
    if (!r.miss) continue;
    ++misses;
    const Program& p = stream.programs()[r.program];
    (void)runLayers(p.name, p.source, config, layer_spans, i, counters);
  }
  addLayerFigures(report, layer_spans.spans(), counters, misses, false, v);
  emitPerLayer(report, v);
  report.note("requests", std::to_string(phase.end - phase.begin));
  report.note("misses", std::to_string(misses));
}

/// The timed run: the request list replayed serially through
/// Server::handleLine, sweep after sweep, each sweep on a server recovered
/// from a fresh copy of the pre-filled cache dir (so every sweep has the
/// same hits and misses; a miss is analyzed, cached and appended to disk).
/// Each figure is taken per sweep and the median sweep reported, as for
/// the batch workloads.
void runReplay(const Args& args, Stream& stream, const TempDir& tmp,
               const std::string& pristine, RunReport& report) {
  // Set-up is what the daemon does at start-up: recover the cache dir. It
  // is timed before the sweeps and again for each sweep's server, so that
  // the samples spread over the whole run (see batch.cpp).
  std::vector<double> setup_s;
  auto startServer = [&](const std::string& dir) {
    cuaf::service::ServerOptions options;
    options.cache_dir = dir;
    std::unique_ptr<cuaf::service::Server> server;
    setup_s.push_back(nominalSeconds(
        [&] { server = std::make_unique<cuaf::service::Server>(options); }));
    const std::size_t recovered = server->cache().stats().entries;
    if (recovered != kHotSet) {
      report.fail("recovered " + std::to_string(recovered) + " of " +
                  std::to_string(kHotSet) + " hot records");
    }
    return server;
  };
  for (int i = 0; i < kSetupRepeats; ++i) (void)startServer(pristine);

  for (std::size_t i = 0; i < kSweepRequests; ++i) (void)stream.addRequest();
  const std::string dir = tmp.sub("sweep");
  auto freshServer = [&] {
    copyCacheDir(pristine, dir);
    std::unique_ptr<cuaf::service::Server> server = startServer(dir);
    // Misses still append to the segment file, but without fdatasync: on
    // a shared virtual disk its latency moved sweep rates by 2x within one
    // run, which would hide any change to the code. The traced run times
    // DiskCache::append with fdatasync on.
    server->diskCache()->setFsyncAppends(false);
    return server;
  };
  {
    // Warm-up on a tenth of the list.
    std::unique_ptr<cuaf::service::Server> server = freshServer();
    for (std::size_t i = 0; i < kSweepRequests / 10; ++i) {
      (void)server->handleLine(stream.requests()[i].line);
    }
  }

  std::vector<std::string> first(kSweepRequests);
  std::vector<double> throughput;
  std::vector<double> p50_us;
  std::vector<double> p99_us;
  std::vector<double> raw_throughput;
  std::vector<double> slowdowns;
  SpeedGauge gauge(kGaugeEverySeconds);
  const Clock::time_point start = Clock::now();
  double last_sweep_s = 0;
  for (int sweep = 0;; ++sweep) {
    const double elapsed = secondsBetween(start, Clock::now());
    if (sweep >= kMinSweeps && elapsed + last_sweep_s > args.seconds) break;
    std::unique_ptr<cuaf::service::Server> server = freshServer();
    std::vector<double> per_request_us;
    per_request_us.reserve(kSweepRequests);
    double work_s = 0;
    gauge.reset();
    gauge.sample();
    const Clock::time_point sweep_start = Clock::now();
    for (std::size_t i = 0; i < kSweepRequests; ++i) {
      const Clock::time_point t0 = Clock::now();
      std::string response = server->handleLine(stream.requests()[i].line);
      const double request_s = secondsBetween(t0, Clock::now());
      per_request_us.push_back(request_s * 1e6);
      work_s += request_s;
      gauge.afterWork(request_s);
      report.attempt();
      if (sweep == 0) {
        first[i] = std::move(response);
      } else if (cuaf::service::stripVolatile(response) !=
                 cuaf::service::stripVolatile(first[i])) {
        report.fail("sweep " + std::to_string(sweep) + ": request " +
                    std::to_string(i + 1) + " gave a different response");
      }
    }
    last_sweep_s = secondsBetween(sweep_start, Clock::now());
    // The sweep's times at nominal host speed (speed.h).
    const double slowdown = gauge.slowdown();
    slowdowns.push_back(slowdown);
    raw_throughput.push_back(static_cast<double>(kSweepRequests) / work_s);
    throughput.push_back(static_cast<double>(kSweepRequests) * slowdown /
                         work_s);
    for (double& us : per_request_us) us /= slowdown;
    p50_us.push_back(
        checkedPercentile(report, "latency_p50_us", per_request_us, 0.50));
    p99_us.push_back(
        checkedPercentile(report, "latency_p99_us", per_request_us, 0.99));
  }
  std::fprintf(stderr, "uafbench: %zu sweeps of %zu requests\n",
               throughput.size(), kSweepRequests);

  report.add("setup_s", median(setup_s), "s");
  report.add("throughput_per_s", median(throughput), "1/s");
  report.add("latency_p50_us", median(p50_us), "us");
  report.add("latency_p99_us", median(p99_us), "us");
  report.add("peak_rss_mb", peakRssMb().value_or(0.0), "MiB");
  report.note("throughput_per_sweep", joined(throughput));
  report.note("raw_throughput_per_sweep", joined(raw_throughput));
  report.note("host_slowdown_per_sweep", joined(slowdowns));

  checkResponses(stream, first, report);
}

}  // namespace

RunReport runServe(const Args& args) {
  RunReport report;
  // The generator thread sleeps to microsecond deadlines.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);

  const Clock::time_point gen_start = Clock::now();
  Stream stream(args.seed);
  const double gen_ms = microsBetween(gen_start, Clock::now()) / 1e3;

  TempDir tmp(kWorkDir);
  const std::string pristine = tmp.sub("prefill");
  prefill(stream, pristine);

  if (args.trace) {
    runTraced(args, stream, gen_ms, tmp, pristine, report);
  } else {
    runReplay(args, stream, tmp, pristine, report);
  }
  return report;
}

}  // namespace uafbench
