// perfbench — end-to-end benchmark of the proxy grid: a login, a run_app and
// an inter-site MPI message, each driven through the grid's public API on
// one 4-site x 4-node grid in proxy-tunneling mode.
//
//   perfbench --workload <control|mpi_small|mpi_bulk|launch> --seed <n>
//             --seconds <s> --trace <0|1> [--out <dir>]
//
// The last line of standard output is one JSON object: {"correct",
// "attempted", "failed", "metrics"}. With --trace 0 the metrics are the
// end-to-end ones; with --trace 1 the run also records the benchmark's own
// spans (written to <dir>/trace-<workload>-<seed>.json), reads the grid's
// spans from Tracer::global(), runs the layer probes, and reports the
// per-layer metrics instead. README.md describes workloads and metrics.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "alloc_count.hpp"
#include "checks.hpp"
#include "grid/grid.hpp"
#include "layers.hpp"
#include "mpi/runtime.hpp"
#include "sched/scheduler.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace perfbench {
namespace {

using namespace pg;
using SteadyClock = std::chrono::steady_clock;

// Taken during static initialization: set-up time counts from process start.
const SteadyClock::time_point g_process_start = SteadyClock::now();

constexpr std::uint32_t kRanks = 16;
constexpr const char* kUser = "bench";
constexpr std::uint32_t kDataTag = 1;
constexpr std::uint32_t kAckTag = 2;
// A launch takes milliseconds; one that has not finished after this long is
// hung (the run would otherwise wait run_app's default two minutes).
constexpr TimeMicros kLaunchDeadline = 2 * kMicrosPerSecond;
constexpr int kLaunchProbes = 24;
// Every end-to-end timing is a median over slices of the measured window.
constexpr std::chrono::seconds kSlice{1};
// Slices with more hypervisor steal than this are left out of the timings.
constexpr double kQuietStealPct = 5.0;
// Warm-up before the first timed op. It is part of setup_s, and sized to
// about 0.3-0.5 s so that one cold set-up is long enough to time steadily
// (with 90 control ops, setup_s spread 0.4-0.5 between identical runs).
constexpr int kControlWarmRounds = 150;  // 3 logins each

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             SteadyClock::now().time_since_epoch())
      .count();
}

double seconds_between(SteadyClock::time_point a, SteadyClock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

// ---------------------------------------------------------------- options

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string out_dir = ".perfbench_out";
};

bool parse_options(int argc, char** argv, Options& options) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      options.seed = std::stoull(value);
    } else if (key == "--seconds") {
      options.seconds = std::max(1, std::stoi(value));
    } else if (key == "--trace") {
      options.trace = value == "1";
    } else if (key == "--out") {
      options.out_dir = value;
    } else {
      return false;
    }
  }
  return have_workload && argc % 2 == 1;
}

// ---------------------------------------------------------------- tracing

/// The benchmark's own spans, kept in memory and written out at the end.
struct SpanLog {
  struct Record {
    const char* name;  // a string literal: recording allocates nothing
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::uint64_t parent;  // index + 1 of the enclosing span, 0 for none
  };
  bool enabled = false;
  std::vector<Record> records;

  std::uint64_t add(const char* name, std::int64_t start, std::int64_t end,
                    std::uint64_t parent = 0) {
    if (!enabled) return 0;
    records.push_back(Record{name, start, end, parent});
    return records.size();
  }
};

SpanLog g_spans;

void record_probe_span(const char* name, std::int64_t start, std::int64_t end) {
  g_spans.add(name, start, end);
}

// ---------------------------------------------------------------- process

struct Usage {
  double cpu_s = 0;
  std::uint64_t ctx_switches = 0;
};

Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
  u.ctx_switches = static_cast<std::uint64_t>(ru.ru_nvcsw + ru.ru_nivcsw);
  return u;
}

/// Peak resident memory of this process image (VmHWM). Unlike ru_maxrss,
/// it does not carry over the parent's size from before exec.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

int thread_count() {
  std::error_code ec;
  int n = 0;
  for (auto it = std::filesystem::directory_iterator("/proc/self/task", ec);
       !ec && it != std::filesystem::directory_iterator(); it.increment(ec)) {
    ++n;
  }
  return n;
}

/// Machine-wide CPU ticks from /proc/stat: stolen by the hypervisor, and
/// wanted (every state but idle and iowait; steal included).
struct HostTicks {
  std::uint64_t steal = 0;
  std::uint64_t wanted = 0;
};

HostTicks host_ticks() {
  HostTicks t;
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  std::uint64_t value = 0;
  // user nice system idle iowait irq softirq steal; guest time is already
  // counted in user and nice.
  for (int field = 0; field < 8 && stat >> value; ++field) {
    if (field != 3 && field != 4) t.wanted += value;
    if (field == 7) t.steal = value;
  }
  return t;
}

/// Share of the CPU time the machine wanted between two samples that the
/// hypervisor gave to other guests instead. Idle CPUs are left out, so the
/// figure does not shrink with the number of CPUs the program leaves idle.
double steal_pct(const HostTicks& before, const HostTicks& after) {
  if (after.wanted <= before.wanted) return 0.0;
  return 100.0 * static_cast<double>(after.steal - before.steal) /
         static_cast<double>(after.wanted - before.wanted);
}

/// One closed slice of the measured window.
struct Slice {
  double seconds = 0;
  std::uint64_t ops = 0;
  double cpu_s = 0;  // process CPU, all threads
  double p50_us = 0;
  double p90_us = 0;
  double steal_pct = 0;  // machine-wide, over the slice
};

/// Records op latencies on the thread that completes the ops and closes a
/// slice every kSlice. The end-to-end timings are medians over slices, so a
/// disturbance of the host shorter than half the run moves none of them.
class SliceRecorder {
 public:
  SliceRecorder() { current_.reserve(1 << 17); }

  void start(std::int64_t now) {
    slice_start_ = now;
    cpu_start_ = usage_now().cpu_s;
    host_start_ = host_ticks();
  }

  void add(double latency_us, std::int64_t now) {
    current_.push_back(latency_us);
    ++ops_;
    if (now - slice_start_ >= std::chrono::nanoseconds(kSlice).count()) close(now);
  }

  /// Ends the window; a tail shorter than half a slice is dropped.
  void finish(std::int64_t now) {
    if (now - slice_start_ >= std::chrono::nanoseconds(kSlice).count() / 2) close(now);
  }

  std::uint64_t ops() const { return ops_; }
  const std::vector<Slice>& slices() const { return slices_; }

 private:
  void close(std::int64_t now) {
    if (current_.empty()) return;
    Slice slice;
    slice.seconds = static_cast<double>(now - slice_start_) / 1e9;
    slice.ops = current_.size();
    const double cpu = usage_now().cpu_s;
    slice.cpu_s = cpu - cpu_start_;
    slice.p50_us = percentile(current_, 0.5);
    slice.p90_us = percentile(current_, 0.9);
    const HostTicks host = host_ticks();
    slice.steal_pct = steal_pct(host_start_, host);
    slices_.push_back(slice);
    current_.clear();
    slice_start_ = now;
    cpu_start_ = cpu;
    host_start_ = host;
  }

  std::vector<double> current_;
  std::vector<Slice> slices_;
  std::uint64_t ops_ = 0;
  std::int64_t slice_start_ = 0;
  double cpu_start_ = 0;
  HostTicks host_start_;
};

/// The slices the end-to-end timings are taken over: those in which the
/// hypervisor stole at most kQuietStealPct of the CPU time wanted. Steal
/// is time the host gave to other guests, not work of the program; in a
/// slice with heavy steal, throughput fell to half. When fewer than a third
/// of the slices are quiet, the third with the least steal is used instead.
std::vector<Slice> quiet_slices(std::vector<Slice> slices) {
  const std::size_t floor = std::max<std::size_t>(1, slices.size() / 3);
  std::vector<Slice> quiet;
  for (const Slice& slice : slices) {
    if (slice.steal_pct <= kQuietStealPct) quiet.push_back(slice);
  }
  if (quiet.size() >= floor) return quiet;
  std::stable_sort(slices.begin(), slices.end(), [](const Slice& a, const Slice& b) {
    return a.steal_pct < b.steal_pct;
  });
  slices.resize(std::min(floor, slices.size()));
  return slices;
}

// ---------------------------------------------------------------- counters

/// Data-plane counters summed over every proxy and node agent.
struct PlaneCounters {
  std::uint64_t batch_frames = 0;
  std::uint64_t batch_flushes = 0;
  std::uint64_t retransmits = 0;
};

PlaneCounters plane_counters(grid::Grid& grid,
                             const grid::TopologySpec& topology) {
  PlaneCounters c;
  auto& registry = telemetry::MetricRegistry::global();
  for (const auto& site : topology.sites) {
    const proxy::ProxyMetrics m = grid.proxy(site.name).metrics();
    c.batch_frames += m.mpi_batch_messages;
    c.batch_flushes += m.mpi_batch_flushes;
    c.retransmits += m.mpi_retransmits;
    for (const auto& node : site.nodes) {
      c.retransmits += registry
                           .counter("pg_mpi_retransmit_total", "",
                                    {{"site", site.name}, {"sender", node.name}})
                           .value();
    }
  }
  return c;
}

/// Cumulative state sampled at the edges of the measured window.
struct Window {
  SteadyClock::time_point start;
  Usage usage_before, usage_after;
  grid::TrafficReport traffic_before, traffic_after;
  PlaneCounters plane_before, plane_after;
  HostTicks host_before, host_after;
  std::uint64_t allocs = 0;
  int threads = 0;
};

// ---------------------------------------------------------------- result

struct RunResult {
  bool correct = true;
  std::string first_error;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  SliceRecorder ops;                 // completed ops
  std::uint64_t payload_sent = 0;    // inter-site payload handed to the grid
  double setup_s = 0;

  void check(const Status& status) {
    if (status.is_ok() || !correct) return;
    correct = false;
    first_error = status.message();
  }
};

// ---------------------------------------------------------------- bench

/// Shared state of the MPI stream app (ranks run on the grid's node
/// threads; the benchmark thread steers phases and reads the results).
struct StreamState {
  std::size_t message_bytes = 0;
  std::size_t window = 0;
  std::uint32_t sender = 0;
  std::uint32_t receiver = 0;
  const PatternSource* pattern = nullptr;
  std::atomic<int> phase{0};  // 0 warm-up, 1 measured, 2 stop
  std::atomic<std::uint64_t> windows_done{0};
  std::atomic<bool> stopped{false};  // the sender sends no more data
  // Sender-owned until the app ends.
  std::uint64_t sent = 0;
  std::uint64_t measured_sent = 0;
  Status sender_status;
  // Receiver-owned until the app ends.
  SliceRecorder* ops = nullptr;
  bool recording = false;
  Status receiver_status;
  std::uint64_t end_seq = 0;
  bool saw_end = false;
};

StreamState* g_stream = nullptr;
std::atomic<std::uint64_t> g_allreduce_ok{0};
std::atomic<std::uint64_t> g_allreduce_bad{0};

Status stream_sender(mpi::Comm& comm, StreamState& s) {
  Bytes message;
  Bytes ack_want(8);
  for (std::uint64_t w = 0;; ++w) {
    const int phase = s.phase.load(std::memory_order_acquire);
    if (phase == 2) {
      // Every measured message has been acked; what follows is not counted.
      s.stopped.store(true, std::memory_order_release);
      StreamHeader end{s.sent, w, kFlagEnd, now_ns()};
      encode_stream_message(end, *s.pattern, kStreamHeaderBytes, message);
      return comm.send(s.receiver, kDataTag, message);
    }
    for (std::size_t i = 0; i < s.window; ++i) {
      StreamHeader h;
      h.seq = s.sent;
      h.window = w;
      h.flags = static_cast<std::uint8_t>((phase == 1 ? kFlagMeasured : 0) |
                                          (i + 1 == s.window ? kFlagLastInWindow : 0));
      encode_stream_message(h, *s.pattern, s.message_bytes, message);
      // Stamp last, so the one-way latency starts at the send call.
      const std::int64_t stamp = now_ns();
      std::memcpy(message.data() + 17, &stamp, sizeof stamp);
      PG_RETURN_IF_ERROR(comm.send(s.receiver, kDataTag, message));
      ++s.sent;
      if (phase == 1) ++s.measured_sent;
    }
    auto ack = comm.recv(static_cast<std::int32_t>(s.receiver), kAckTag);
    if (!ack.is_ok()) return ack.status();
    std::memcpy(ack_want.data(), &w, sizeof w);
    if (ack.value() != ack_want) {
      return error(ErrorCode::kInternal, "stream: ack for the wrong window");
    }
    s.windows_done.fetch_add(1, std::memory_order_release);
  }
}

Status stream_receiver(mpi::Comm& comm, StreamState& s) {
  StreamChecker checker(*s.pattern, s.message_bytes);
  Status first_error;
  Bytes ack(8);
  for (;;) {
    auto message = comm.recv(static_cast<std::int32_t>(s.sender), kDataTag);
    const std::int64_t arrived = now_ns();
    if (!message.is_ok()) return message.status();
    StreamHeader h;
    const Status st = checker.accept(message.value(), h);
    if (!st.is_ok() && first_error.is_ok()) first_error = st;
    if (h.flags & kFlagEnd) {
      s.saw_end = true;
      s.end_seq = h.seq;
      break;
    }
    if (h.flags & kFlagMeasured) {
      if (!s.recording) {
        s.ops->start(arrived);
        s.recording = true;
      }
      s.ops->add(static_cast<double>(arrived - h.stamp_ns) / 1000.0, arrived);
    }
    if (h.flags & kFlagLastInWindow) {
      std::memcpy(ack.data(), &h.window, sizeof h.window);
      PG_RETURN_IF_ERROR(comm.send(s.sender, kAckTag, ack));
    }
  }
  if (s.recording) s.ops->finish(now_ns());
  if (first_error.is_ok()) first_error = checker.finish(s.end_seq);
  s.receiver_status = first_error;
  return Status::ok();
}

void register_apps() {
  auto& registry = mpi::AppRegistry::instance();
  registry.register_app("perfbench.stream", [](mpi::Comm& comm) -> Status {
    StreamState& s = *g_stream;
    if (comm.rank() == s.sender) {
      s.sender_status = stream_sender(comm, s);
      s.stopped.store(true, std::memory_order_release);
      return s.sender_status;
    }
    if (comm.rank() == s.receiver) return stream_receiver(comm, s);
    return Status::ok();
  });
  registry.register_app("perfbench.allreduce", [](mpi::Comm& comm) -> Status {
    auto sum = comm.allreduce(comm.rank(), mpi::ReduceOp::kSum);
    if (!sum.is_ok()) return sum.status();
    const Status st = check_allreduce_sum(sum.value(), comm.size());
    (st.is_ok() ? g_allreduce_ok : g_allreduce_bad).fetch_add(1);
    return st;
  });
}

class Bench {
 public:
  explicit Bench(Options options)
      : options_(std::move(options)), topology_(make_topology(options_.seed)) {
    Rng rng(options_.seed ^ 0x5eedULL);
    password_ = "pw-" + std::to_string(rng.next_u64());
  }

  int run();

 private:
  Status build();
  void begin_window();
  void end_window();

  void run_control(RunResult& r);
  void run_launch(RunResult& r);
  void run_stream(RunResult& r, std::size_t message_bytes, std::size_t window,
                  std::uint64_t warm_windows);

  /// One run_app of the 16-rank allreduce app with its checks; false when
  /// the launch failed (deadline or error). A measured launch records its
  /// latency as an op.
  bool launch_once(RunResult& r, bool measured);
  void trace_launches(std::map<std::string, double>& layer, RunResult& r);

  std::map<std::string, double> end_to_end(const RunResult& r) const;
  std::map<std::string, double> per_layer(RunResult& r);
  void write_trace() const;

  Options options_;
  grid::TopologySpec topology_;
  std::string password_;
  std::unique_ptr<grid::Grid> grid_;
  Bytes token_;
  Window window_;
  std::uint64_t handshakes_at_setup_ = 0;
  double build_s_ = 0;  // process start to a built grid and a login
};

Status Bench::build() {
  grid::GridBuilder builder;
  builder.seed(options_.seed).topology(topology_);
  builder.add_user(kUser, password_, {"mpi.run", "status.query"});
  auto built = builder.build();
  if (!built.is_ok()) return built.status();
  grid_ = built.take();
  handshakes_at_setup_ = grid_->traffic_report().handshakes;
  auto token = grid_->login("site0", kUser, password_);
  if (!token.is_ok()) return token.status();
  token_ = token.take();
  build_s_ = seconds_between(g_process_start, SteadyClock::now());
  return Status::ok();
}

void Bench::begin_window() {
  window_ = Window{};
  window_.traffic_before = grid_->traffic_report();
  window_.plane_before = plane_counters(*grid_, topology_);
  window_.host_before = host_ticks();
  alloc_counter_reset();
  alloc_counter_enable(options_.trace);
  window_.usage_before = usage_now();
  window_.start = SteadyClock::now();
}

void Bench::end_window() {
  window_.usage_after = usage_now();
  alloc_counter_enable(false);
  window_.allocs = alloc_counter_value();
  window_.traffic_after = grid_->traffic_report();
  window_.plane_after = plane_counters(*grid_, topology_);
  window_.host_after = host_ticks();
  if (window_.threads == 0) window_.threads = thread_count();
}

// Closed loop of logins at a peer site (round-robin over the three peers),
// each followed by a status poll of all four sites with the new token.
void Bench::run_control(RunResult& r) {
  auto& site0 = grid_->proxy("site0");
  const std::vector<std::string> peers = {"site1", "site2", "site3"};
  proto::AuthRequest request;
  request.user = kUser;
  request.method = proto::AuthMethod::kPassword;
  request.credential.assign(password_.begin(), password_.end());
  const std::uint64_t request_bytes = request.serialize().size();

  // The same op, with its checks; returns false when it failed outright.
  const auto op = [&](const std::string& peer, bool measured) {
    const std::int64_t t0 = now_ns();
    auto login = site0.login_at(peer, request);
    const std::int64_t t1 = now_ns();
    if (!login.is_ok() || !login.value().ok) return false;
    auto rows = site0.query_status({}, login.value().token);
    const std::int64_t t2 = now_ns();
    if (!rows.is_ok()) return false;
    if (measured) {
      r.ops.add(static_cast<double>(t2 - t0) / 1000.0, t2);
      r.payload_sent += request_bytes;
      const std::uint64_t span = g_spans.add("op.control", t0, t2);
      g_spans.add("call.login_at", t0, t1, span);
      g_spans.add("call.query_status", t1, t2, span);
    }
    r.check(check_status_rows(rows.value(), topology_));
    return true;
  };

  // Warm-up, and the negative check: a wrong password is refused.
  for (int round = 0; round < kControlWarmRounds; ++round) {
    for (const auto& peer : peers) {
      if (!op(peer, false)) r.check(error(ErrorCode::kInternal, "warm-up login failed"));
    }
  }
  proto::AuthRequest wrong = request;
  wrong.credential.push_back('!');
  auto refused = site0.login_at("site1", wrong);
  if (!refused.is_ok() || refused.value().ok) {
    r.check(error(ErrorCode::kInternal, "control: wrong password accepted"));
  }

  r.setup_s = seconds_between(g_process_start, SteadyClock::now());
  begin_window();
  r.ops.start(now_ns());
  const auto deadline = window_.start + std::chrono::seconds(options_.seconds);
  const auto census = window_.start + std::chrono::seconds(1);
  do {
    for (const auto& peer : peers) {
      ++r.attempted;
      if (!op(peer, true)) ++r.failed;
    }
    if (window_.threads == 0 && SteadyClock::now() >= census) window_.threads = thread_count();
  } while (SteadyClock::now() < deadline);
  r.ops.finish(now_ns());
  end_window();
}

bool Bench::launch_once(RunResult& r, bool measured) {
  auto scheduler = sched::make_round_robin_scheduler();
  const std::uint64_t ok_before = g_allreduce_ok.load();
  const std::int64_t t0 = now_ns();
  proxy::AppRunResult run = grid_->proxy("site0").run_app(
      kUser, token_, "perfbench.allreduce", kRanks, *scheduler, {},
      kLaunchDeadline);
  const std::int64_t t1 = now_ns();
  if (!run.status.is_ok()) return false;
  if (measured) r.ops.add(static_cast<double>(t1 - t0) / 1000.0, t1);
  g_spans.add("call.run_app", t0, t1);
  r.check(check_placements(run.placements, topology_, kRanks));
  if (g_allreduce_ok.load() - ok_before != kRanks || g_allreduce_bad.load() != 0) {
    r.check(error(ErrorCode::kInternal, "launch: not every rank saw the right sum"));
  }
  return true;
}

// Closed loop of run_app launches of a 16-rank allreduce app.
void Bench::run_launch(RunResult& r) {
  for (int i = 0; i < 20; ++i) (void)launch_once(r, false);
  r.setup_s = seconds_between(g_process_start, SteadyClock::now());
  begin_window();
  r.ops.start(now_ns());
  const auto deadline = window_.start + std::chrono::seconds(options_.seconds);
  const auto census = window_.start + std::chrono::seconds(1);
  do {
    ++r.attempted;
    if (!launch_once(r, true)) ++r.failed;
    if (window_.threads == 0 && SteadyClock::now() >= census) window_.threads = thread_count();
  } while (SteadyClock::now() < deadline);
  r.ops.finish(now_ns());
  end_window();
}

// One long-running app streams messages from rank 0 (site0) to rank 4
// (site1), `window` in flight and one ack per window.
void Bench::run_stream(RunResult& r, std::size_t message_bytes,
                       std::size_t window, std::uint64_t warm_windows) {
  const PatternSource pattern(options_.seed, message_bytes);
  StreamState state;
  state.message_bytes = message_bytes;
  state.window = window;
  // Round-robin puts rank 0 on site0/node0 and rank 4 on site1/node0.
  state.sender = 0;
  state.receiver = 4;
  state.pattern = &pattern;
  state.ops = &r.ops;
  g_stream = &state;

  proxy::AppRunResult run;
  std::thread client([&] {
    auto scheduler = sched::make_round_robin_scheduler();
    run = grid_->proxy("site0").run_app(kUser, token_, "perfbench.stream", kRanks,
                                        *scheduler, {},
                                        (options_.seconds + 60) * kMicrosPerSecond);
  });

  // Warm-up: a fixed number of windows, bounded in time so a launch that
  // never starts streaming ends the run instead of stalling it.
  const auto warm_deadline = SteadyClock::now() + std::chrono::seconds(30);
  while (state.windows_done.load(std::memory_order_acquire) < warm_windows &&
         SteadyClock::now() < warm_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const bool started = state.windows_done.load() >= warm_windows;
  if (!started) r.check(error(ErrorCode::kDeadlineExceeded, "stream: app did not start streaming"));

  r.setup_s = seconds_between(g_process_start, SteadyClock::now());
  begin_window();
  state.phase.store(1, std::memory_order_release);
  std::this_thread::sleep_until(window_.start + std::chrono::seconds(1));
  window_.threads = thread_count();
  std::this_thread::sleep_until(window_.start + std::chrono::seconds(options_.seconds));
  state.phase.store(2, std::memory_order_release);
  // Let the window in flight at the switch complete before closing the books.
  const auto drain_deadline = SteadyClock::now() + std::chrono::seconds(10);
  while (started && !state.stopped.load(std::memory_order_acquire) &&
         SteadyClock::now() < drain_deadline) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  end_window();

  client.join();
  g_stream = nullptr;
  r.check(run.status);
  r.check(check_placements(run.placements, topology_, kRanks));
  r.check(state.sender_status);
  r.check(state.receiver_status);
  if (!state.saw_end) r.check(error(ErrorCode::kInternal, "stream: no end marker"));
  r.attempted = state.measured_sent;
  if (r.ops.ops() != state.measured_sent) {
    r.check(error(ErrorCode::kInternal, "stream: measured messages lost"));
  }
  r.payload_sent = state.measured_sent * message_bytes;
}

/// One line on standard error: how much of the window the timings cover.
void report_slices(const std::vector<Slice>& slices) {
  std::string steal;
  for (const Slice& slice : slices) {
    char buf[48];
    std::snprintf(buf, sizeof buf, " %.1f:%.0f", slice.steal_pct,
                  static_cast<double>(slice.ops) / slice.seconds);
    steal += buf;
  }
  std::fprintf(stderr,
               "perfbench: timings over %zu of %zu slices; steal %%:ops/s per slice:%s\n",
               quiet_slices(slices).size(), slices.size(), steal.c_str());
}

std::map<std::string, double> Bench::end_to_end(const RunResult& r) const {
  std::map<std::string, double> m;
  std::vector<double> rates, cpu, p50, p90;
  for (const Slice& slice : quiet_slices(r.ops.slices())) {
    rates.push_back(static_cast<double>(slice.ops) / slice.seconds);
    cpu.push_back(slice.cpu_s * 1e6 / static_cast<double>(slice.ops));
    p50.push_back(slice.p50_us);
    p90.push_back(slice.p90_us);
  }
  const double done = static_cast<double>(std::max<std::uint64_t>(1, r.ops.ops()));
  const auto& a = window_.traffic_after;
  const auto& b = window_.traffic_before;
  m["setup_s"] = r.setup_s;
  m["ops_per_s"] = percentile(rates, 0.5);
  m["op_p50_us"] = percentile(p50, 0.5);
  m["op_p90_us"] = percentile(p90, 0.5);
  m["cpu_us_per_op"] = percentile(cpu, 0.5);
  m["wire_bytes_per_op"] =
      static_cast<double>((a.inter_site.wire_bytes - b.inter_site.wire_bytes) +
                          (a.intra_site.wire_bytes - b.intra_site.wire_bytes)) / done;
  m["crypto_bytes_per_op"] =
      static_cast<double>((a.inter_site.crypto_bytes - b.inter_site.crypto_bytes) +
                          (a.intra_site.crypto_bytes - b.intra_site.crypto_bytes)) / done;
  return m;
}

void Bench::trace_launches(std::map<std::string, double>& layer, RunResult& r) {
  // Split a launch with the program's own spans: proxy.run_app and its
  // proxy.schedule child (status round trips + scheduler decision).
  telemetry::Tracer::global().clear();
  int failed = 0;
  for (int i = 0; i < kLaunchProbes; ++i) {
    if (!launch_once(r, false)) ++failed;
  }
  std::map<std::uint64_t, std::pair<double, double>> by_trace;  // run, schedule
  for (const auto& span : telemetry::Tracer::global().snapshot()) {
    const double us = static_cast<double>(span.end_micros - span.start_micros);
    if (span.name == "proxy.run_app" && span.ok) by_trace[span.trace_id].first = us;
    if (span.name == "proxy.schedule" && span.ok) by_trace[span.trace_id].second = us;
  }
  std::vector<double> schedule, self;
  for (const auto& [id, t] : by_trace) {
    if (t.first <= 0 || t.second <= 0) continue;
    schedule.push_back(t.second);
    self.push_back(t.first - t.second);
  }
  layer["proxy.schedule_us"] = percentile(schedule, 0.5);
  layer["proxy.launch_self_us"] = percentile(self, 0.5);
  layer["proxy.launch_probe_failures"] = failed;
}

std::map<std::string, double> Bench::per_layer(RunResult& r) {
  std::map<std::string, double> layer =
      probe_layers(options_.seed, topology_, &record_probe_span);
  const double ops = static_cast<double>(std::max<std::uint64_t>(1, r.ops.ops()));
  const auto& a = window_.traffic_after;
  const auto& b = window_.traffic_before;
  const auto& pa = window_.plane_after;
  const auto& pb = window_.plane_before;
  layer["proxy.control_calls_per_op"] =
      static_cast<double>(a.control_calls - b.control_calls) / ops;
  layer["proxy.notifies_per_op"] =
      static_cast<double>(a.control_notifies - b.control_notifies) / ops;
  layer["proxy.inter_site_msgs_per_op"] =
      static_cast<double>(a.inter_site.messages - b.inter_site.messages) / ops;
  layer["proxy.intra_site_msgs_per_op"] =
      static_cast<double>(a.intra_site.messages - b.intra_site.messages) / ops;
  const double flushes = static_cast<double>(pa.batch_flushes - pb.batch_flushes);
  layer["proxy.frames_per_batch"] =
      flushes > 0 ? static_cast<double>(pa.batch_frames - pb.batch_frames) / flushes : 0.0;
  layer["proxy.retransmits_per_kop"] =
      static_cast<double>(pa.retransmits - pb.retransmits) * 1000.0 / ops;
  layer["grid.handshakes_at_setup"] = static_cast<double>(handshakes_at_setup_);
  layer["grid.build_s"] = build_s_;
  layer["process.allocs_per_op"] = static_cast<double>(window_.allocs) / ops;
  layer["process.ctx_switches_per_op"] =
      static_cast<double>(window_.usage_after.ctx_switches -
                          window_.usage_before.ctx_switches) / ops;
  layer["process.peak_rss_mb"] = peak_rss_mb();
  layer["process.threads"] = window_.threads;
  layer["proxy.ping_rtt_us"] = probe_ping_rtt_us(*grid_, &record_probe_span);
  trace_launches(layer, r);
  layer["host.ref_loop_ms"] = probe_ref_loop_ms();
  layer["host.steal_pct"] = steal_pct(window_.host_before, window_.host_after);
  layer["host.noisy_slices"] = static_cast<double>(
      r.ops.slices().size() - quiet_slices(r.ops.slices()).size());
  return layer;
}

void Bench::write_trace() const {
  std::error_code ec;
  std::filesystem::create_directories(options_.out_dir, ec);
  const std::string path = options_.out_dir + "/trace-" + options_.workload + "-" +
                           std::to_string(options_.seed) + ".json";
  std::ofstream out(path);
  out << "{\"bench_spans\":[";
  for (std::size_t i = 0; i < g_spans.records.size(); ++i) {
    const auto& span = g_spans.records[i];
    out << (i ? ",\n" : "\n") << "{\"id\":" << i + 1 << ",\"parent\":" << span.parent
        << ",\"name\":\"" << span.name << "\",\"start_ns\":" << span.start_ns
        << ",\"end_ns\":" << span.end_ns << "}";
  }
  out << "],\n\"grid_spans\":[";
  const auto spans = telemetry::Tracer::global().snapshot();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& span = spans[i];
    out << (i ? ",\n" : "\n") << "{\"trace\":" << span.trace_id << ",\"id\":" << span.span_id
        << ",\"parent\":" << span.parent_span_id << ",\"name\":\"" << span.name
        << "\",\"component\":\"" << span.component << "\",\"start_us\":" << span.start_micros
        << ",\"end_us\":" << span.end_micros << "}";
  }
  out << "]}\n";
  std::fprintf(stderr, "perfbench: trace written to %s\n", path.c_str());
}

std::string json_number(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", value);
  return buf;
}

/// Every metric the benchmark reports, with its unit (as in BENCHMARK.json).
const std::map<std::string, std::string>& metric_units() {
  static const std::map<std::string, std::string> kUnits = {
      // end to end
      {"setup_s", "s"},
      {"ops_per_s", "1/s"},
      {"op_p50_us", "us"},
      {"op_p90_us", "us"},
      {"cpu_us_per_op", "us"},
      {"wire_bytes_per_op", "bytes"},
      {"crypto_bytes_per_op", "bytes"},
      // per layer
      {"crypto.chacha20_ns_per_kib", "ns/KiB"},
      {"crypto.hmac_ns_per_kib", "ns/KiB"},
      {"crypto.rsa_sign_us", "us"},
      {"tls.record_256b_ns", "ns"},
      {"tls.record_64kib_us", "us"},
      {"tls.handshake_full_us", "us"},
      {"tls.handshake_resumed_us", "us"},
      {"net.channel_rtt_us", "us"},
      {"proto.envelope_codec_ns", "ns"},
      {"proto.mpi_batch_codec_ns_per_frame", "ns/frame"},
      {"auth.password_verify_us", "us"},
      {"auth.ticket_authorize_us", "us"},
      {"monitor.collect_us", "us"},
      {"sched.assign_us", "us"},
      {"mpi.mailbox_handoff_us", "us"},
      {"mpi.local_allreduce_us", "us"},
      {"proxy.ping_rtt_us", "us"},
      {"proxy.control_calls_per_op", "count/op"},
      {"proxy.notifies_per_op", "count/op"},
      {"proxy.inter_site_msgs_per_op", "count/op"},
      {"proxy.intra_site_msgs_per_op", "count/op"},
      {"proxy.frames_per_batch", "frames/batch"},
      {"proxy.retransmits_per_kop", "count/kop"},
      {"proxy.schedule_us", "us"},
      {"proxy.launch_self_us", "us"},
      {"proxy.launch_probe_failures", "count"},
      {"grid.handshakes_at_setup", "count"},
      {"grid.build_s", "s"},
      {"process.allocs_per_op", "count/op"},
      {"process.ctx_switches_per_op", "count/op"},
      {"process.threads", "count"},
      {"process.peak_rss_mb", "MB"},
      {"host.ref_loop_ms", "ms"},
      {"host.steal_pct", "%"},
      {"host.noisy_slices", "count"},
  };
  return kUnits;
}

std::string metrics_json(const std::map<std::string, double>& values) {
  std::string out = "{";
  for (const auto& [name, value] : values) {
    if (out.size() > 1) out += ", ";
    out += "\"" + name + "\": {\"value\": " + json_number(value) +
           ", \"unit\": \"" + metric_units().at(name) + "\"}";
  }
  return out + "}";
}

int Bench::run() {
  struct StreamShape {
    std::size_t message_bytes;
    std::size_t window;
    std::uint64_t warm_windows;
  };
  static const std::map<std::string, StreamShape> kStreams = {
      {"mpi_small", {256, 32, 500}},
      {"mpi_bulk", {64 * 1024, 8, 100}},
  };
  const bool known = options_.workload == "control" || options_.workload == "launch" ||
                     kStreams.count(options_.workload) != 0;
  if (!known) {
    std::fprintf(stderr, "perfbench: unknown workload %s\n", options_.workload.c_str());
    return 2;
  }
  register_apps();
  g_spans.enabled = options_.trace;
  const Status built = build();
  if (!built.is_ok()) {
    std::fprintf(stderr, "perfbench: grid build failed: %s\n", built.message().c_str());
    return 1;
  }

  RunResult r;
  if (options_.workload == "control") {
    run_control(r);
  } else if (options_.workload == "launch") {
    run_launch(r);
  } else {
    const StreamShape& shape = kStreams.at(options_.workload);
    run_stream(r, shape.message_bytes, shape.window, shape.warm_windows);
  }
  r.check(check_traffic(window_.traffic_before, window_.traffic_after, r.payload_sent));
  report_slices(r.ops.slices());

  const std::map<std::string, double> e2e = end_to_end(r);
  std::map<std::string, double> reported = e2e;
  if (options_.trace) {
    // Reported for the tracing-overhead comparison; not a result line.
    std::printf("{\"traced_end_to_end\": %s}\n", metrics_json(e2e).c_str());
    reported = per_layer(r);
    write_trace();
  }
  grid_->shutdown();
  if (!r.correct) std::fprintf(stderr, "perfbench: check failed: %s\n", r.first_error.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": %s}\n",
              r.correct ? "true" : "false", r.attempted, r.failed,
              metrics_json(reported).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options options;
  bool parsed = false;
  try {
    parsed = perfbench::parse_options(argc, argv, options);
  } catch (const std::exception&) {  // a number that does not parse
  }
  if (!parsed) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <control|mpi_small|mpi_bulk|launch> "
                 "--seed <n> --seconds <s> --trace <0|1> [--out <dir>]\n");
    return 2;
  }
  return perfbench::Bench(std::move(options)).run();
}
