// serve-mixed: an open loop of tenant requests against one in-process
// serve::Server.
//
// Three tenants, generated from the auto-like, xyce680s-like and
// cage14-like analogs, are written as hMETIS files and LOADed. A single
// generator thread then sends seeded Poisson arrivals at a few fixed
// rates: ~98% DELTAs that re-weight a small connected region, ~2% REPARTs
// that force a full V-cycle. Each request is timed from its scheduled send
// time, so a stall behind a REPART (head-of-line blocking in the single
// worker) counts against every request that queued behind it.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string_view>
#include <thread>  // hgr-lint: thread-ok (sleep_until only)

#include "bench_common.hpp"
#include "common/rng.hpp"
#include "hypergraph/convert.hpp"
#include "hypergraph/io.hpp"
#include "obs/trace.hpp"
#include "serve/server.hpp"
#include "workload/datasets.hpp"

namespace epochbench {

using namespace hgr;

namespace {

struct TenantDef {
  const char* name;
  const char* dataset;
  double scale;
};

constexpr TenantDef kTenants[] = {
    {"auto", "auto-like", 0.25},
    {"xyce", "xyce680s-like", 0.3},
    {"cage", "cage14-like", 0.05},
};
constexpr Index kParts = 4;
constexpr Weight kAlpha = 10;
constexpr Index kServeThreads = 2;
/// Offered rates (requests/s); the middle one is the reference rate.
constexpr double kRates[] = {50.0, 100.0, 800.0};
/// Share of the measured seconds each rate gets.
constexpr double kRateShare[] = {0.15, 0.7, 0.15};
constexpr std::size_t kRefRate = 1;
constexpr double kRepartShare = 0.02;
/// Vertices re-weighted by one DELTA: a connected region around a seed.
constexpr std::size_t kRegion = 2;
/// Fixed p99 latency limit (also recorded in BENCHMARK.json). The
/// reference rate's p99 is ~65 ms on a quiet host and reached ~120 ms under
/// host contention; the top rate's is seconds.
constexpr double kP99LimitMs = 250.0;
constexpr int kWarmupDeltas = 10;

struct Tenant {
  std::string name;
  std::string path;
  Graph graph;  // region growth for DELTAs
};

struct Planned {
  double at = 0.0;  // seconds after the window start
  std::string line;
  std::size_t tenant = 0;
  bool repart = false;
};

std::string delta_line(const Tenant& t, Rng& rng) {
  const Graph& g = t.graph;
  const auto n = static_cast<std::uint64_t>(g.num_vertices());
  std::vector<Index> region{static_cast<Index>(rng.below(n))};
  for (std::size_t i = 0; i < region.size() && region.size() < kRegion; ++i)
    for (const Index u : g.neighbors(region[i])) {
      if (region.size() >= kRegion) break;
      if (std::find(region.begin(), region.end(), u) == region.end())
        region.push_back(u);
    }
  std::string line = "DELTA " + t.name;
  for (const Index v : region)
    line += ' ' + std::to_string(v) + ':' +
            std::to_string(g.vertex_weight(v) *
                           static_cast<Weight>(1 + rng.below(2)));
  return line;
}

/// Poisson arrivals at `rate`; every 1/kRepartShare-th request (from a
/// seeded offset, tenants in turn) is a REPART, so each window carries a
/// fixed share of full repartitions and the latency tail samples them
/// evenly.
std::vector<Planned> plan_window(const std::vector<Tenant>& tenants,
                                 double rate, double seconds, Rng& rng) {
  const auto period = static_cast<std::size_t>(std::lround(1.0 / kRepartShare));
  const std::size_t offset = static_cast<std::size_t>(rng.below(period));
  std::vector<Planned> out;
  std::size_t reparts = 0;
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - rng.uniform()) / rate;
    if (t >= seconds) break;
    Planned p;
    p.at = t;
    p.repart = out.size() % period == offset;
    p.tenant = p.repart ? reparts++ % tenants.size()
                        : static_cast<std::size_t>(rng.below(tenants.size()));
    p.line = p.repart ? "REPART " + tenants[p.tenant].name
                      : delta_line(tenants[p.tenant], rng);
    out.push_back(std::move(p));
  }
  return out;
}

/// What the reply callback records per request id.
struct Reply {
  int count = 0;
  Clock::time_point at;
  bool ok = false;
  bool degraded = false;
  bool incremental = false;
  Weight cut = 0;
  Weight mig = 0;
  int coalesced = 0;
};

/// Value of a ` key=<integer>` reply field, -1 when absent.
Weight field(std::string_view line, std::string_view key) {
  std::size_t at = line.find(key);
  while (at != std::string_view::npos &&
         (at == 0 || line[at - 1] != ' ' || at + key.size() >= line.size() ||
          line[at + key.size()] != '='))
    at = line.find(key, at + 1);
  if (at == std::string_view::npos) return -1;
  return std::strtoll(line.data() + at + key.size() + 1, nullptr, 10);
}

/// The replies of one server, indexed by request id.
class ReplyLog {
 public:
  void reserve(std::uint64_t max_id) { replies_.resize(max_id + 1); }

  void on_reply(const std::string& line) {
    const Clock::time_point now = Clock::now();
    const std::lock_guard<std::mutex> lock(mutex_);
    const std::size_t sp = line.find(' ');
    const std::uint64_t id =
        sp == std::string::npos ? 0 : std::strtoull(line.c_str() + sp + 1,
                                                    nullptr, 10);
    if (id == 0 || id >= replies_.size()) {
      stray_ = true;
      return;
    }
    Reply& r = replies_[id];
    ++r.count;
    r.at = now;
    r.ok = line.rfind("OK ", 0) == 0;
    r.degraded = line.find(" degraded=1") != std::string::npos;
    r.incremental = line.find(" tier=incremental") != std::string::npos;
    r.cut = field(line, "cut");
    r.mig = field(line, "mig");
    r.coalesced =
        static_cast<int>(std::max<Weight>(0, field(line, "coalesced")));
    if (tracer_ != nullptr && id % 2 == 0 && id < scheduled_.size())
      tracer_->add("serve.request", id, -1, scheduled_[id], now);
  }

  /// Spans for even request ids (half the traffic), from their scheduled
  /// send time to their reply.
  void trace_into(SpanRecorder* rec,
                  std::vector<Clock::time_point> scheduled) {
    const std::lock_guard<std::mutex> lock(mutex_);
    tracer_ = rec;
    scheduled_ = std::move(scheduled);
  }

  const Reply& at(std::uint64_t id) const { return replies_[id]; }
  bool stray() const { return stray_; }

 private:
  std::mutex mutex_;
  std::vector<Reply> replies_;
  bool stray_ = false;
  SpanRecorder* tracer_ = nullptr;
  std::vector<Clock::time_point> scheduled_;
};

struct WindowResult {
  double rate = 0.0;
  std::vector<double> latency_ms, delta_ms, repart_ms, lag_ms;
  std::vector<double> traced_ms, untraced_ms;
  double achieved_rps = 0.0;
  double drain_ms = 0.0;  // last send -> last reply
  std::size_t backlog_max = 0;
  std::int64_t failed = 0;
  bool meets_limit = false;
};

/// The benchmark's side of one server: the server, its replies, and the
/// last request id it assigned.
struct Client {
  std::unique_ptr<ReplyLog> log = std::make_unique<ReplyLog>();
  std::unique_ptr<serve::Server> server;
  std::uint64_t last_id = 0;
};

serve::ServeConfig server_config(const Options& opt) {
  serve::ServeConfig cfg;
  cfg.default_k = kParts;
  cfg.default_alpha = kAlpha;
  cfg.seed = opt.seed;
  cfg.num_threads = kServeThreads;
  cfg.queue_capacity = std::size_t{1} << 20;  // shedding is not measured
  cfg.incremental = IncrementalMode::kAuto;
  return cfg;
}

/// One submit whose id is known in advance (single submitter).
void submit(Client& s, const std::string& line) {
  const std::uint64_t id = s.server->submit(line);
  require(id == s.last_id + 1, "serve: request ids are not sequential");
  s.last_id = id;
}

Client set_up(const Options& opt, const std::vector<Tenant>& tenants,
               std::uint64_t max_id) {
  Client s;
  s.log->reserve(max_id);
  ReplyLog* log = s.log.get();
  s.server = std::make_unique<serve::Server>(
      server_config(opt),
      [log](const std::string& line) { log->on_reply(line); });
  for (const Tenant& t : tenants) submit(s, "LOAD " + t.name + " " + t.path);
  Rng rng(derive_seed(opt.seed, 7));
  for (const Tenant& t : tenants) {
    for (int i = 0; i < kWarmupDeltas; ++i) submit(s, delta_line(t, rng));
    submit(s, "REPART " + t.name);
  }
  s.server->drain();
  for (std::uint64_t id = 1; id <= s.last_id; ++id)
    require(s.log->at(id).count == 1 && s.log->at(id).ok,
            "serve: set-up request " + std::to_string(id) + " failed");
  return s;
}

WindowResult run_window(Client& s, const std::vector<Planned>& plan,
                        double rate, SpanRecorder* rec) {
  WindowResult w;
  w.rate = rate;
  const std::uint64_t first_id = s.last_id + 1;
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  std::vector<Clock::time_point> scheduled(first_id + plan.size());
  for (std::size_t i = 0; i < plan.size(); ++i)
    scheduled[first_id + i] =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(plan[i].at));
  if (rec != nullptr) s.log->trace_into(rec, scheduled);
  Clock::time_point last_send = start;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const Clock::time_point due = scheduled[first_id + i];
    // Sleep to just short of the send time, then spin: the generator's own
    // wake-up jitter stays out of the measured latency.
    std::this_thread::sleep_until(due - std::chrono::microseconds(200));
    while (Clock::now() < due) {
    }
    last_send = Clock::now();
    w.lag_ms.push_back(1e3 * seconds_between(due, last_send));
    submit(s, plan[i].line);
    w.backlog_max = std::max(w.backlog_max, s.server->queue_depth());
  }
  s.server->drain();
  if (rec != nullptr) s.log->trace_into(nullptr, {});

  Clock::time_point last_reply = start;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const std::uint64_t id = first_id + i;
    const Reply& r = s.log->at(id);
    require(r.count == 1, "serve: request " + std::to_string(id) + " got " +
                              std::to_string(r.count) + " replies");
    if (!r.ok || r.degraded) ++w.failed;
    const double ms = 1e3 * seconds_between(scheduled[id], r.at);
    w.latency_ms.push_back(ms);
    (plan[i].repart ? w.repart_ms : w.delta_ms).push_back(ms);
    (id % 2 == 0 ? w.traced_ms : w.untraced_ms).push_back(ms);
    last_reply = std::max(last_reply, r.at);
  }
  w.achieved_rps = static_cast<double>(plan.size()) /
                   seconds_between(start, last_reply);
  w.drain_ms = 1e3 * seconds_between(last_send, last_reply);
  // A backlog that is still draining a whole latency limit after the last
  // send is growing, whatever the percentiles say.
  w.meets_limit = w.failed == 0 &&
                  quantile(w.latency_ms, 0.99) <= kP99LimitMs &&
                  w.drain_ms <= kP99LimitMs;
  return w;
}

}  // namespace

RunResult run_serve_workload(const Options& opt) {
  // Inputs: the tenants' hypergraphs, written once per run.
  std::vector<Tenant> tenants;
  for (const TenantDef& d : kTenants) {
    Tenant t;
    t.name = d.name;
    t.path = opt.work_dir + "/serve-" + d.name + "-" +
             std::to_string(opt.seed) + ".hgr";
    t.graph = make_dataset(d.dataset, opt.tiny ? d.scale * kTinyScale : d.scale,
                           opt.seed);
    write_hmetis_file(graph_to_hypergraph(t.graph), t.path);
    tenants.push_back(std::move(t));
  }
  Rng rng(opt.seed);
  std::vector<std::vector<Planned>> plans;
  std::size_t planned = 0;
  for (std::size_t i = 0; i < std::size(kRates); ++i) {
    plans.push_back(
        plan_window(tenants, kRates[i], opt.seconds * kRateShare[i], rng));
    planned += plans.back().size();
  }
  const std::uint64_t setup_ids = tenants.size() * (2 + kWarmupDeltas);
  const std::uint64_t max_id = setup_ids + planned;

  std::vector<double> setup_seconds;
  Client client;
  for (int i = 0; i < kSetupRepeats; ++i) {
    if (client.server) client.server->shutdown();
    client.server.reset();  // before its reply log goes
    const Clock::time_point t0 = Clock::now();
    client = set_up(opt, tenants, max_id);
    setup_seconds.push_back(seconds_between(t0, Clock::now()));
  }

  SpanRecorder rec(opt.trace);
  obs::Registry& reg = obs::global_registry();
  std::vector<WindowResult> windows;
  double coarsen = 0.0, initial = 0.0, refine = 0.0;
  double batches = 0.0, requests = 0.0;
  const std::uint64_t escalations_before =
      reg.counter_value("epoch.escalations");
  for (std::size_t i = 0; i < plans.size(); ++i) {
    const bool ref = i == kRefRate;
    obs::PhaseSnapshot before;
    std::uint64_t batches0 = 0, requests0 = 0;
    if (ref && opt.trace) {
      before = reg.phase_tree();
      batches0 = reg.counter_value("serve.batches");
      requests0 = reg.counter_value("serve.requests");
    }
    windows.push_back(run_window(client, plans[i], kRates[i],
                                 ref && opt.trace ? &rec : nullptr));
    if (ref && opt.trace) {
      const obs::PhaseSnapshot after = reg.phase_tree();
      const auto delta = [&](const char* phase) {
        return phase_seconds(after, phase) - phase_seconds(before, phase);
      };
      coarsen = delta("coarsen");
      initial = delta("initial");
      refine = delta("refine");
      batches =
          static_cast<double>(reg.counter_value("serve.batches") - batches0);
      requests =
          static_cast<double>(reg.counter_value("serve.requests") - requests0);
    }
  }
  const double escalations = static_cast<double>(
      reg.counter_value("epoch.escalations") - escalations_before);
  client.server->shutdown();
  require(!client.log->stray(), "serve: reply for an unknown request id");
  require(client.server->replied() == client.last_id,
          "serve: replies != submitted requests");

  RunResult out;
  // Per-dispatch accounting from the replies: a batch of c+1 coalesced
  // requests carries coalesced=c on each reply.
  double delta_dispatches = 0.0, incremental_dispatches = 0.0,
         full_ref_dispatches = 0.0;
  std::vector<double> tenant_cost_sum(tenants.size(), 0.0),
      tenant_cost_n(tenants.size(), 0.0);
  std::uint64_t id = setup_ids + 1;
  for (std::size_t i = 0; i < plans.size(); ++i) {
    for (const Planned& p : plans[i]) {
      const Reply& r = client.log->at(id++);
      const double share = 1.0 / (1.0 + r.coalesced);
      if (!p.repart) {
        delta_dispatches += share;
        if (r.incremental) incremental_dispatches += share;
      }
      if (i == kRefRate && !r.incremental) full_ref_dispatches += share;
      if (r.ok) {
        tenant_cost_sum[p.tenant] += static_cast<double>(r.cut) +
                                     static_cast<double>(r.mig) /
                                         static_cast<double>(kAlpha);
        tenant_cost_n[p.tenant] += 1.0;
      }
    }
  }
  double cost = 0.0;
  for (std::size_t t = 0; t < tenants.size(); ++t)
    cost += tenant_cost_sum[t] / std::max(1.0, tenant_cost_n[t]);
  cost /= static_cast<double>(tenants.size());

  double max_rps = 0.0;
  for (const WindowResult& w : windows) {
    out.attempted += static_cast<std::int64_t>(w.latency_ms.size());
    out.failed += w.failed;
    if (w.meets_limit) max_rps = w.achieved_rps;
  }
  const WindowResult& ref = windows[kRefRate];
  auto& v = out.values;
  v["epoch_s"] = 1e-3 * median(ref.latency_ms);
  v["normalized_cost"] = cost;
  v["setup_s"] = median(setup_seconds);
  v["serve_p50_ms"] = median(ref.latency_ms);
  v["serve_p99_ms"] =
      quantile(ref.latency_ms, tail_quantile(ref.latency_ms.size()));
  v["serve_max_rps"] = max_rps;

  v["core.incremental_frac"] =
      delta_dispatches > 0.0 ? incremental_dispatches / delta_dispatches : 0.0;
  v["core.escalations"] = escalations;
  if (opt.trace) {
    v["core.epochs"] = batches;
    const double full = std::max(1.0, full_ref_dispatches);
    v["partition.coarsen_s"] = coarsen / full;
    v["partition.initial_s"] = initial / full;
    v["partition.refine_s"] = refine / full;
    v["serve.delta_p99_ms"] =
        quantile(ref.delta_ms, tail_quantile(ref.delta_ms.size()));
    v["serve.repart_p99_ms"] =
        quantile(ref.repart_ms, tail_quantile(ref.repart_ms.size()));
    v["serve.batch_size"] = batches > 0.0 ? requests / batches : 0.0;
    v["serve.backlog_max"] = static_cast<double>(ref.backlog_max);
    v["serve.gen_lag_ms"] =
        quantile(ref.lag_ms, tail_quantile(ref.lag_ms.size()));
    v["obs.trace_overhead_pct"] =
        100.0 * (median(ref.traced_ms) / median(ref.untraced_ms) - 1.0);
    if (!opt.trace_out.empty()) rec.write_json(opt.trace_out, opt.stamp);
  }

  char line[320];
  for (const WindowResult& w : windows) {
    std::snprintf(line, sizeof line,
                  "rate %.0f/s: n=%zu p50=%.2fms p99=%.2fms (limit %.0fms) "
                  "achieved=%.1f/s drain=%.1fms backlog_max=%zu %s",
                  w.rate, w.latency_ms.size(), median(w.latency_ms),
                  quantile(w.latency_ms, 0.99), kP99LimitMs, w.achieved_rps,
                  w.drain_ms, w.backlog_max,
                  w.meets_limit ? "meets" : "misses");
    out.notes.emplace_back(line);
  }
  std::snprintf(line, sizeof line,
                "regime serve-mixed: core.incremental_frac = %.3f of DELTA "
                "dispatches, %zu REPARTs at the reference rate",
                v["core.incremental_frac"], ref.repart_ms.size());
  out.notes.emplace_back(line);
  return out;
}

}  // namespace epochbench
