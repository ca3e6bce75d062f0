// btsc-perfbench — the benchmark's in-process helper (perfbench/run.py
// drives it; the end-to-end legs themselves run the shipped CLIs).
//
//   btsc-perfbench build-type
//   btsc-perfbench setup --study fig06:40 [--study ID:REPS[:quick]]...
//   btsc-perfbench service-setup --jobs-dir DIR
//   btsc-perfbench trace --study ID:REPS[:quick]... --base-seed S
//                  --threads N --dir DIR [--job-file F]
//
// setup times the one-off work before a sweep's first replication: each
// point's system built and driven to its measurement boundary once
// (construction for the creation family, piconet formation for the
// connected ones), summed over the points and repeated; the median is
// printed. It runs at each scenario's default base seed, so its work is
// the same in every call. service-setup does the same for SweepService
// construction + recover() + start() on a jobs directory of finished
// jobs. setup and trace also print each study's shape: its point count
// and the first-column values of the rows btsc-sweep writes for it.
//
// trace drives runner::SweepRunner with bodies that call the public
// staged API (warm-up, save_snapshot, scaffold construction,
// restore_snapshot, run_*_from). Each call is one span (name, start,
// end, parent), kept in memory and written to DIR/spans.jsonl at exit;
// layer counters come from the layers' public accessors, read around
// the measure stage. The workload runs three times: untraced at 1
// thread, traced at 1 thread (counters, spans) and traced at N threads
// (worker idle time). Counters and sample digests must agree across the
// three. Two more untraced and traced 1-thread runs time the tracing
// overhead. With --job-file the same jobs also run through an in-process
// SweepService, and their replications are appended to fresh journals
// with each SweepJournal::append timed.
//
// Every mode prints one JSON object on its last stdout line.
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/coexistence.hpp"
#include "core/experiments.hpp"
#include "core/system.hpp"
#include "runner/journal.hpp"
#include "runner/scenarios.hpp"
#include "runner/sweep.hpp"
#include "runner/warmup_store.hpp"
#include "service/job.hpp"
#include "service/sweepd.hpp"
#include "sim/rng.hpp"

namespace {

namespace fs = std::filesystem;
using btsc::baseband::PacketType;
using Clock = std::chrono::steady_clock;
namespace core = btsc::core;
namespace runner = btsc::runner;
namespace sim = btsc::sim;

const Clock::time_point g_epoch = Clock::now();

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile (q in [0, 1]).
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ---- spans ------------------------------------------------------------------

struct Span {
  const char* name = "";
  std::uint32_t parent = 0;  // 0 = root
  std::int64_t start_ns = 0;
  std::int64_t end_ns = -1;
  std::uint32_t thread = 0;

  double seconds() const { return static_cast<double>(end_ns - start_ns) / 1e9; }
};

std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t id = next.fetch_add(1);
  return id;
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              g_epoch)
      .count();
}

/// In-memory span log. A disabled log records nothing (the untraced
/// leg); ids are 1-based indices, 0 meaning "no span".
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  std::uint32_t begin(const char* name, std::uint32_t parent) {
    if (!enabled_) return 0;
    Span s;
    s.name = name;
    s.parent = parent;
    s.thread = thread_index();
    s.start_ns = now_ns();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(s);
    return static_cast<std::uint32_t>(spans_.size());
  }

  void end(std::uint32_t id) {
    if (id == 0) return;
    const std::int64_t t = now_ns();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[id - 1].end_ns = t;
  }

  /// Read only after every worker that records into the log has joined.
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::mutex mu_;
  std::vector<Span> spans_;
};

class SpanScope {
 public:
  SpanScope(SpanLog& log, const char* name, std::uint32_t parent)
      : log_(log), id_(log.begin(name, parent)) {}
  ~SpanScope() { log_.end(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  std::uint32_t id() const { return id_; }

 private:
  SpanLog& log_;
  std::uint32_t id_;
};

// ---- layer counters ---------------------------------------------------------

enum Counter : std::size_t {
  kTimersScheduled,
  kTimersFired,
  kTimersCanceled,
  kWheelHits,
  kDeltaCycles,
  kProcessActivations,
  kClockTicks,
  kBitsDriven,
  kBitsBurst,
  kBurstFallbacks,
  kBitsFlipped,
  kCollisionSamples,
  kRadioBitsSampled,
  kRadioBitsSent,
  kSyncs,
  kHecFailures,
  kCrcFailures,
  kFecFailures,
  kIdTx,
  kFhsTx,
  kDataTx,
  kDataRxOk,
  kRetransmissions,
  kBackoffs,
  kLmPdusSent,
  kLmPdusReceived,
  kCounterCount
};

constexpr std::array<const char*, kCounterCount> kCounterNames = {
    "sim.timers_scheduled",     "sim.timers_fired",
    "sim.timers_canceled",      "sim.wheel_hits",
    "sim.delta_cycles",         "sim.process_activations",
    "sim.clock_ticks",          "phy.bits_driven",
    "phy.bits_burst",           "phy.burst_fallbacks",
    "phy.bits_flipped",         "phy.collision_samples",
    "phy.radio_bits_sampled",   "phy.radio_bits_sent",
    "baseband.syncs",           "baseband.hec_failures",
    "baseband.crc_failures",    "baseband.fec_failures",
    "baseband.id_tx",           "baseband.fhs_tx",
    "baseband.data_tx",         "baseband.data_rx_ok",
    "baseband.retransmissions", "baseband.backoffs",
    "lm.pdus_sent",             "lm.pdus_received"};

using Counters = std::array<std::uint64_t, kCounterCount>;

Counters& operator+=(Counters& a, const Counters& b) {
  for (std::size_t i = 0; i < kCounterCount; ++i) a[i] += b[i];
  return a;
}

Counters operator-(const Counters& a, const Counters& b) {
  Counters d{};
  for (std::size_t i = 0; i < kCounterCount; ++i) d[i] = a[i] - b[i];
  return d;
}

void add_env(Counters& c, sim::Environment& env) {
  const auto st = env.scheduler_stats();
  c[kTimersScheduled] += st.scheduled;
  c[kTimersFired] += st.fired;
  c[kTimersCanceled] += st.canceled;
  c[kWheelHits] += st.wheel_hits;
  c[kDeltaCycles] += env.delta_count();
  c[kProcessActivations] += env.process_activations();
}

void add_channel(Counters& c, btsc::phy::NoisyChannel& ch) {
  c[kBitsDriven] += ch.bits_driven();
  c[kBitsBurst] += ch.bits_burst();
  c[kBurstFallbacks] += ch.burst_fallbacks();
  c[kBitsFlipped] += ch.bits_flipped();
  c[kCollisionSamples] += ch.collision_samples();
}

void add_device(Counters& c, btsc::baseband::Device& d) {
  c[kClockTicks] += d.clock().ticks();
  c[kRadioBitsSampled] += d.radio().bits_sampled();
  c[kRadioBitsSent] += d.radio().bits_sent();
  c[kSyncs] += d.receiver().syncs_detected();
  c[kHecFailures] += d.receiver().hec_failures();
  c[kCrcFailures] += d.receiver().crc_failures();
  c[kFecFailures] += d.receiver().fec_failures();
  const auto& lc = d.lc().stats();
  c[kIdTx] += lc.id_tx;
  c[kFhsTx] += lc.fhs_tx;
  c[kDataTx] += lc.data_tx;
  c[kDataRxOk] += lc.data_rx_ok;
  c[kRetransmissions] += lc.retransmissions;
  c[kBackoffs] += lc.backoffs;
}

void add_lm(Counters& c, btsc::lm::LinkManager& lm) {
  c[kLmPdusSent] += lm.pdus_sent();
  c[kLmPdusReceived] += lm.pdus_received();
}

/// One simulated system of either shape the studies build.
struct System {
  std::unique_ptr<core::BluetoothSystem> bt;
  std::unique_ptr<core::TwoPiconets> two;

  sim::Environment& env() { return bt ? bt->env() : two->env(); }

  std::vector<std::uint8_t> save() {
    return bt ? bt->save_snapshot() : two->save_snapshot();
  }

  void restore(const std::vector<std::uint8_t>& bytes) {
    if (bt) {
      bt->restore_snapshot(bytes);
    } else {
      two->restore_snapshot(bytes);
    }
  }

  Counters counters() {
    Counters c{};
    add_env(c, env());
    if (bt) {
      add_channel(c, bt->channel());
      add_device(c, bt->master());
      add_lm(c, bt->master_lm());
      for (int i = 0; i < bt->num_slaves(); ++i) {
        add_device(c, bt->slave(i));
        add_lm(c, bt->slave_lm(i));
      }
    } else {
      add_channel(c, two->channel());
      for (int p = 0; p < 2; ++p) {
        add_device(c, two->master(p));
        add_device(c, two->slave(p));
        add_lm(c, two->master_lm(p));
        add_lm(c, two->slave_lm(p));
      }
    }
    return c;
  }
};

// ---- studies ----------------------------------------------------------------

enum class Family { kCreation, kMaster, kSniff, kHold, kThroughput, kCoexistence };

struct Point {
  double ber = 0.0;
  double duty = 0.0;
  std::optional<std::uint32_t> mode;
  PacketType type = PacketType::kDm1;
  std::uint32_t period = 0;
};

/// One registered scenario as the CLI runs it. The point lists and
/// measurement windows mirror src/runner/scenarios.cpp, so the traced
/// leg repeats the work of `btsc-sweep --scenario ID --seeds REPS`.
struct Study {
  std::string scenario;
  Family family = Family::kCreation;
  std::vector<Point> points;
  /// First-column values of the artifact rows btsc-sweep writes.
  std::vector<double> row_keys;
  int replications = 1;
  bool quick = false;
  bool crn = false;
  std::uint64_t default_base_seed = 1;
};

/// The artifact's "1/BER" column: 0 for a noiseless channel.
double inverse_ber(double ber) { return ber == 0.0 ? 0.0 : 1.0 / ber; }

constexpr std::uint32_t kCreationTimeoutSlots = 2048;

Study make_study(const std::string& spec) {
  // spec = ID:REPS[:quick]
  Study s;
  std::stringstream ss(spec);
  std::string reps, flag;
  std::getline(ss, s.scenario, ':');
  std::getline(ss, reps, ':');
  std::getline(ss, flag, ':');
  s.replications = reps.empty() ? 0 : std::stoi(reps);
  s.quick = flag == "quick";
  const runner::ScenarioInfo* info = runner::find_scenario(s.scenario);
  if (info == nullptr || s.replications < 1) {
    throw std::invalid_argument("bad --study " + spec);
  }
  s.crn = info->common_random_numbers;
  s.default_base_seed = info->default_base_seed;
  const double bers[] = {0.0,      1.0 / 100, 1.0 / 90, 1.0 / 80, 1.0 / 70,
                         1.0 / 60, 1.0 / 50,  1.0 / 40, 1.0 / 30};
  if (s.scenario == "fig06" || s.scenario == "fig08") {
    s.family = Family::kCreation;
    for (double b : bers) {
      if (b == 0.0 && s.scenario == "fig08") continue;
      Point p;
      p.ber = b;
      s.points.push_back(p);
      s.row_keys.push_back(inverse_ber(b));
    }
  } else if (s.scenario == "fig10") {
    s.family = Family::kMaster;
    for (double d : {0.0, 0.0025, 0.005, 0.0075, 0.01, 0.0125, 0.015, 0.0175,
                     0.02}) {
      Point p;
      p.duty = d;
      s.points.push_back(p);
      s.row_keys.push_back(100.0 * d);
    }
  } else if (s.scenario == "fig11" || s.scenario == "fig12") {
    s.family = s.scenario == "fig11" ? Family::kSniff : Family::kHold;
    const std::vector<std::uint32_t> modes =
        s.scenario == "fig11"
            ? std::vector<std::uint32_t>{10, 20, 30, 40, 50, 60, 80, 100}
            : std::vector<std::uint32_t>{40,  80,  120, 160, 200,
                                         400, 600, 800, 1000};
    s.points.push_back(Point{});  // active-mode baseline, a column of each row
    for (std::uint32_t m : modes) {
      Point p;
      p.mode = m;
      s.points.push_back(p);
      s.row_keys.push_back(m);
    }
  } else if (s.scenario == "throughput") {
    s.family = Family::kThroughput;
    for (double b : {0.0, 1.0 / 5000, 1.0 / 1000, 1.0 / 500, 1.0 / 200,
                     1.0 / 100}) {
      s.row_keys.push_back(inverse_ber(b));  // one row, a column per type
      for (PacketType t : {PacketType::kDm1, PacketType::kDh1, PacketType::kDm3,
                           PacketType::kDh3, PacketType::kDm5,
                           PacketType::kDh5}) {
        Point p;
        p.ber = b;
        p.type = t;
        s.points.push_back(p);
      }
    }
  } else if (s.scenario == "coexistence") {
    s.family = Family::kCoexistence;
    for (std::uint32_t period : {0u, 64u, 16u, 8u, 4u, 2u}) {
      Point p;
      p.period = period;
      s.points.push_back(p);
      s.row_keys.push_back(period);
    }
  } else {
    throw std::invalid_argument("study not covered by the benchmark: " +
                                s.scenario);
  }
  return s;
}

struct Warm {
  System system;
  std::uint64_t construction_seed = 0;
};

System wrap(std::unique_ptr<core::BluetoothSystem> bt) {
  System s;
  s.bt = std::move(bt);
  return s;
}

System wrap(std::unique_ptr<core::TwoPiconets> two) {
  System s;
  s.two = std::move(two);
  return s;
}

Warm wrap(core::ConnectedWarmup w) {
  return {wrap(std::move(w.system)), w.construction_seed};
}

/// Builds the point's system and drives it to the measurement boundary.
Warm warm_up(const Study& s, const Point& p, std::uint64_t seed) {
  switch (s.family) {
    case Family::kCreation:
      return {wrap(core::make_creation_system(p.ber, kCreationTimeoutSlots,
                                              seed)),
              seed};
    case Family::kMaster: return wrap(core::master_activity_warmup(seed));
    case Family::kSniff: return wrap(core::sniff_activity_warmup(seed));
    case Family::kHold: return wrap(core::hold_activity_warmup(seed));
    case Family::kThroughput:
      return wrap(core::throughput_warmup(p.type, seed));
    case Family::kCoexistence:
      return {wrap(core::coexistence_warmup(seed)), seed};
  }
  throw std::logic_error("unreachable");
}

/// The structural twin a warm-up snapshot restores into.
System scaffold(const Study& s, const Point& p, std::uint64_t seed) {
  switch (s.family) {
    case Family::kCreation:
      return wrap(core::make_creation_system(p.ber, kCreationTimeoutSlots, seed));
    case Family::kMaster: return wrap(core::master_activity_scaffold(seed));
    case Family::kSniff: return wrap(core::sniff_activity_scaffold(seed));
    case Family::kHold: return wrap(core::hold_activity_scaffold(seed));
    case Family::kThroughput:
      return wrap(core::throughput_scaffold(p.type, seed));
    case Family::kCoexistence: return wrap(core::coexistence_scaffold(seed));
  }
  throw std::logic_error("unreachable");
}

/// The measure stage; returns the replication's raw outputs.
std::vector<double> measure(const Study& s, const Point& p, System& sys,
                            std::uint64_t seed) {
  switch (s.family) {
    case Family::kCreation: {
      const auto r = core::run_creation_from(*sys.bt, seed);
      return {double(r.inquiry_success), double(r.inquiry_slots),
              double(r.page_attempted), double(r.page_success),
              double(r.page_slots)};
    }
    case Family::kMaster: {
      core::MasterActivityConfig cfg;
      cfg.seed = seed;
      cfg.measure_slots = s.quick ? 8000 : 40000;
      const auto r = core::run_master_activity_from(*sys.bt, p.duty, cfg);
      return {r.master.tx_fraction, r.master.rx_fraction, double(r.messages)};
    }
    case Family::kSniff: {
      core::SniffActivityConfig cfg;
      cfg.seed = seed;
      cfg.measure_slots = s.quick ? 8000 : 30000;
      const auto r = core::run_sniff_activity_from(*sys.bt, p.mode, cfg);
      return {r.slave.tx_fraction, r.slave.rx_fraction};
    }
    case Family::kHold: {
      core::HoldActivityConfig cfg;
      cfg.seed = seed;
      cfg.min_measure_slots = s.quick ? 8000 : 30000;
      const auto r = core::run_hold_activity_from(*sys.bt, p.mode, cfg);
      return {r.slave.tx_fraction, r.slave.rx_fraction};
    }
    case Family::kThroughput: {
      core::ThroughputConfig cfg;
      cfg.seed = seed;
      cfg.measure_slots = s.quick ? 3000 : 8000;
      const auto r = core::run_throughput_from(*sys.bt, p.type, p.ber, cfg);
      return {r.goodput_kbps, double(r.delivered_messages),
              double(r.retransmissions)};
    }
    case Family::kCoexistence: {
      core::CoexistenceRunConfig cfg;
      cfg.seed = seed;
      cfg.measure_slots = s.quick ? 8000 : 24000;
      const auto r = core::run_coexistence_from(*sys.two, p.period, cfg);
      return {r.goodput_kbps, double(r.retransmissions),
              double(r.collision_samples)};
    }
  }
  throw std::logic_error("unreachable");
}

std::uint64_t warm_seed(const Study& s, std::uint64_t base, std::size_t point) {
  return sim::Rng::derive_stream_seed(base, s.crn ? 0 : point,
                                      core::kWarmupReplicationIndex);
}

// ---- traced leg -------------------------------------------------------------

/// One replication's outputs; merge concatenates in replication order.
struct Outputs {
  std::vector<double> values;
  void merge(const Outputs& o) {
    values.insert(values.end(), o.values.begin(), o.values.end());
  }
};

struct LegResult {
  double wall_s = 0.0;
  std::uint64_t digest = 1469598103934665603ull;  // FNV-1a over all outputs
  Counters counters{};                            // warm-ups + measure stages
  Counters measure_counters{};                    // measure stages only
  double measure_sim_s = 0.0;
  double measure_host_s = 0.0;
  std::size_t replications = 0;
  std::size_t images_built = 0;
  std::vector<double> snapshot_bytes;
  /// Every replication's outputs, per study, in (point, replication)
  /// order (the journal leg appends them).
  std::vector<std::vector<std::vector<double>>> per_rep;
};

void fnv(std::uint64_t& h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
}

LegResult run_leg(const std::vector<Study>& studies, std::uint64_t base_seed,
                  int threads, SpanLog& log, bool collect) {
  LegResult leg;
  const auto t0 = Clock::now();
  for (const Study& study : studies) {
    struct Image {
      std::once_flag once;
      runner::SystemImage image;
      Counters counters{};
    };
    struct Record {
      Counters counters{};
      double sim_s = 0.0;
      double host_s = 0.0;
      std::vector<double> values;
    };
    const auto reps = static_cast<std::size_t>(study.replications);
    std::vector<Image> images(study.points.size());
    std::vector<Record> records(study.points.size() * reps);

    runner::SweepOptions opt;
    opt.threads = threads;
    opt.replications = study.replications;
    opt.base_seed = base_seed;
    opt.common_random_numbers = study.crn;
    runner::SweepRunner<Point, Outputs> sweep(opt);

    SpanScope sweep_span(log, "sweep", 0);
    const std::uint32_t parent = sweep_span.id();
    const auto merged = sweep.run(
        study.points, [&](const Point& p, const runner::Replication& rep) {
          SpanScope rep_span(log, "replication", parent);
          Image& img = images[rep.point_index];
          std::call_once(img.once, [&] {
            Warm w = [&] {
              SpanScope s(log, "warmup", rep_span.id());
              return warm_up(study, p,
                             warm_seed(study, base_seed, rep.point_index));
            }();
            {
              SpanScope s(log, "snapshot.save", rep_span.id());
              img.image.bytes = w.system.save();
            }
            img.image.construction_seed = w.construction_seed;
            if (collect) img.counters = w.system.counters();
          });
          System sys = [&] {
            SpanScope s(log, "construct", rep_span.id());
            return scaffold(study, p, img.image.construction_seed);
          }();
          {
            SpanScope s(log, "snapshot.restore", rep_span.id());
            sys.restore(img.image.bytes);
          }
          Record& rec = records[rep.point_index * reps + rep.replication_index];
          Counters before{};
          if (collect) before = sys.counters();
          const sim::SimTime sim0 = sys.env().now();
          const auto m0 = Clock::now();
          Outputs out;
          {
            SpanScope s(log, "measure", rep_span.id());
            out.values = measure(study, p, sys, rep.seed);
          }
          rec.host_s = seconds_since(m0);
          rec.sim_s = (sys.env().now() - sim0).as_sec();
          if (collect) rec.counters = sys.counters() - before;
          rec.values = out.values;
          return out;
        });

    for (const Outputs& o : merged) {
      fnv(leg.digest, o.values.data(), o.values.size() * sizeof(double));
    }
    std::vector<std::vector<double>> per_rep;
    for (Record& r : records) {
      leg.counters += r.counters;
      leg.measure_counters += r.counters;
      leg.measure_sim_s += r.sim_s;
      leg.measure_host_s += r.host_s;
      per_rep.push_back(std::move(r.values));
    }
    leg.per_rep.push_back(std::move(per_rep));
    for (const Image& img : images) {
      leg.counters += img.counters;
      leg.snapshot_bytes.push_back(static_cast<double>(img.image.bytes.size()));
    }
    leg.replications += records.size();
    leg.images_built += images.size();
  }
  leg.wall_s = seconds_since(t0);
  return leg;
}

/// Durations and self times (duration minus the children's) per span
/// name, over spans with index in [from, to).
struct SpanStats {
  std::map<std::string, std::vector<double>> durations;
  std::map<std::string, double> self_s;
};

SpanStats span_stats(const std::vector<Span>& spans, std::size_t from,
                     std::size_t to) {
  SpanStats st;
  std::vector<double> child_s(spans.size(), 0.0);
  for (std::size_t i = from; i < to; ++i) {
    if (spans[i].parent != 0) child_s[spans[i].parent - 1] += spans[i].seconds();
  }
  for (std::size_t i = from; i < to; ++i) {
    st.durations[spans[i].name].push_back(spans[i].seconds());
    st.self_s[spans[i].name] += spans[i].seconds() - child_s[i];
  }
  return st;
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

// ---- output -----------------------------------------------------------------

class JsonLine {
 public:
  void num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    add(key, buf);
  }
  void str(const std::string& key, const std::string& v) {
    add(key, "\"" + btsc::service::json_escape(v) + "\"");
  }
  void raw(const std::string& key, const std::string& v) { add(key, v); }
  std::string text() const { return "{" + body_ + "}"; }

 private:
  void add(const std::string& key, const std::string& v) {
    body_ += (body_.empty() ? "\"" : ", \"") + key + "\": " + v;
  }
  std::string body_;
};

std::string json_array(const std::vector<double>& v) {
  std::string out = "[";
  char buf[64];
  for (std::size_t i = 0; i < v.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.9g", v[i]);
    out += (i ? ", " : "") + std::string(buf);
  }
  return out + "]";
}

// ---- modes ------------------------------------------------------------------

struct Args {
  std::string mode;
  std::vector<std::string> studies;
  std::uint64_t base_seed = 1;
  int threads = 1;
  std::string dir;
  std::string jobs_dir;
  std::string job_file;
};

Args parse_args(int argc, char** argv) {
  Args a;
  if (argc < 2) throw std::invalid_argument("missing mode");
  a.mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
    const std::string v = argv[++i];
    if (flag == "--study") {
      a.studies.push_back(v);
    } else if (flag == "--base-seed") {
      a.base_seed = std::stoull(v);
    } else if (flag == "--threads") {
      a.threads = std::stoi(v);
    } else if (flag == "--dir") {
      a.dir = v;
    } else if (flag == "--jobs-dir") {
      a.jobs_dir = v;
    } else if (flag == "--job-file") {
      a.job_file = v;
    } else {
      throw std::invalid_argument("unknown option " + flag);
    }
  }
  return a;
}

std::vector<Study> studies_of(const Args& a) {
  std::vector<Study> out;
  for (const std::string& s : a.studies) out.push_back(make_study(s));
  if (out.empty()) throw std::invalid_argument("no --study given");
  return out;
}

/// Host time one set-up call spends on repeats. Timings within a process
/// agree closely; it is between processes that they spread, so the
/// caller runs several short calls and takes the median of their medians.
constexpr double kSetupBudgetS = 0.1;

/// `{"fig06": {"points": 9, "row_keys": [0, 100, ...]}, ...}`
std::string shape_json(const std::vector<Study>& studies) {
  JsonLine shape;
  for (const Study& s : studies) {
    JsonLine one;
    one.num("points", static_cast<double>(s.points.size()));
    one.raw("row_keys", json_array(s.row_keys));
    shape.raw(s.scenario, one.text());
  }
  return shape.text();
}

/// Repeats `once` (which returns its own timed seconds) until the budget
/// is spent, within [3, 41] repeats, and prints the median.
int repeat_setup(const std::function<double()>& once,
                 const std::string& shape = "") {
  std::vector<double> samples;
  const auto t0 = Clock::now();
  while (samples.size() < 3 ||
         (samples.size() < 41 && seconds_since(t0) < kSetupBudgetS)) {
    samples.push_back(once());
  }
  JsonLine out;
  out.num("setup_s", median(samples));
  out.num("repeats", static_cast<double>(samples.size()));
  out.raw("samples", json_array(samples));
  if (!shape.empty()) out.raw("shape", shape);
  std::cout << out.text() << "\n";
  return 0;
}

int mode_setup(const Args& a) {
  const std::vector<Study> studies = studies_of(a);
  return repeat_setup(
      [&] {
        double total = 0.0;
        for (const Study& s : studies) {
          for (std::size_t i = 0; i < s.points.size(); ++i) {
            const auto t0 = Clock::now();
            Warm w = warm_up(s, s.points[i],
                             warm_seed(s, s.default_base_seed, i));
            total += seconds_since(t0);  // teardown is not set-up
          }
        }
        return total;
      },
      shape_json(studies));
}

int mode_service_setup(const Args& a) {
  if (a.jobs_dir.empty()) throw std::invalid_argument("--jobs-dir required");
  return repeat_setup([&] {
    btsc::service::ServiceConfig cfg;
    cfg.jobs_dir = a.jobs_dir;
    const auto t0 = Clock::now();
    btsc::service::SweepService svc(cfg);
    svc.recover();
    svc.start();
    const double s = seconds_since(t0);
    svc.shutdown();
    return s;
  });
}

std::vector<std::string> read_job_lines(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty() && line[0] != '#') lines.push_back(line);
  }
  return lines;
}

/// Service leg: journal appends, then the jobs through an in-process
/// SweepService at one worker, then a restart's recover().
bool service_leg(const Args& a, const Study& study, const LegResult& leg,
                 JsonLine& m) {
  const std::vector<std::string> lines = read_job_lines(a.job_file);
  const fs::path root = fs::path(a.dir) / "service";
  fs::remove_all(root);
  fs::create_directories(root / "journals");

  // Every job's replications, appended durably one record at a time.
  std::vector<double> append_ms;
  for (const std::string& line : lines) {
    const auto spec = btsc::service::parse_job_line(line);
    runner::JournalConfig jc;
    jc.scenario = spec.scenario;
    jc.base_seed = spec.base_seed;
    jc.replications = static_cast<std::uint32_t>(study.replications);
    jc.points = static_cast<std::uint32_t>(study.points.size());
    jc.quick = spec.quick;
    jc.staged_warmup = true;
    runner::SweepJournal journal((root / "journals" / (spec.id + ".journal")).string(),
                                 jc, false);
    const auto& reps = leg.per_rep.front();
    const auto per_point = static_cast<std::size_t>(study.replications);
    for (std::size_t i = 0; i < reps.size(); ++i) {
      const auto& v = reps[i];
      core::CreationSample cs;
      cs.inquiry_success = v.at(0) != 0.0;
      cs.inquiry_slots = static_cast<std::uint64_t>(v.at(1));
      cs.page_attempted = v.at(2) != 0.0;
      cs.page_success = v.at(3) != 0.0;
      cs.page_slots = static_cast<std::uint64_t>(v.at(4));
      core::CreationPoint point;
      point.add(cs);
      sim::SnapshotWriter w;
      point.save_state(w);
      const std::vector<std::uint8_t> bytes = w.take();
      const auto t0 = Clock::now();
      journal.append(i / per_point, i % per_point, i, bytes);
      append_ms.push_back(seconds_since(t0) * 1e3);
    }
  }
  m.num("runner.journal_append_ms.p50", median(append_ms));
  m.num("runner.journal_append_ms.p99", percentile(append_ms, 0.99));

  btsc::service::ServiceConfig cfg;
  cfg.jobs_dir = (root / "jobs").string();
  cfg.workers = 1;
  runner::reset_warmup_store_stats();
  std::vector<double> submit_ms;
  std::vector<double> job_s;
  bool ok = true;
  {
    btsc::service::SweepService svc(cfg);
    svc.recover();
    svc.start();
    for (const std::string& line : lines) {
      const auto spec = btsc::service::parse_job_line(line);
      const auto t0 = Clock::now();
      const std::string err = svc.submit(spec);
      submit_ms.push_back(seconds_since(t0) * 1e3);
      if (!err.empty()) {
        std::cerr << "btsc-perfbench: submit " << spec.id << ": " << err << "\n";
        ok = false;
      }
    }
    svc.wait_idle();
    svc.shutdown();
    for (const auto& st : svc.status()) {
      if (st.state != btsc::service::JobState::kDone) ok = false;
      job_s.push_back(st.wall_s);
    }
  }
  const auto warm = runner::warmup_store_stats();
  double recover_ms = 0.0;
  {
    btsc::service::SweepService svc(cfg);
    const auto t0 = Clock::now();
    svc.recover();
    recover_ms = seconds_since(t0) * 1e3;
  }
  m.num("runner.warmup_cache_hit_frac",
        ratio(double(warm.hits), double(warm.hits + warm.misses)));
  m.num("service.submit_ms.p50", median(submit_ms));
  m.num("service.job_s.p50", median(job_s));
  m.num("service.recover_ms", recover_ms);
  return ok && job_s.size() == lines.size();
}

int mode_trace(const Args& a) {
  if (a.dir.empty()) throw std::invalid_argument("--dir required");
  const std::vector<Study> studies = studies_of(a);
  fs::create_directories(a.dir);

  SpanLog off(false);
  const LegResult plain = run_leg(studies, a.base_seed, 1, off, false);

  SpanLog log(true);
  const LegResult one = run_leg(studies, a.base_seed, 1, log, true);
  const std::size_t one_end = log.spans().size();
  const LegResult par = run_leg(studies, a.base_seed, a.threads, log, true);
  const std::size_t par_end = log.spans().size();
  const SpanStats st1 = span_stats(log.spans(), 0, one_end);
  const SpanStats stp = span_stats(log.spans(), one_end, par_end);

  const auto durations = [&](const char* name) {
    const auto it = st1.durations.find(name);
    return it == st1.durations.end() ? std::vector<double>{} : it->second;
  };
  const Counters& c = one.counters;
  const auto count = [&](Counter k) { return static_cast<double>(c[k]); };

  JsonLine m;
  m.num("core.construct_ms.p50", median(durations("construct")) * 1e3);
  m.num("core.warmup_ms.p50", median(durations("warmup")) * 1e3);
  m.num("core.measure_ms.p50", median(durations("measure")) * 1e3);
  m.num("core.measure_ms.p99", percentile(durations("measure"), 0.99) * 1e3);
  m.num("core.sim_s_per_host_s", ratio(one.measure_sim_s, one.measure_host_s));
  for (Counter k : {kTimersFired, kTimersScheduled, kTimersCanceled}) {
    m.num(kCounterNames[k], count(k));
  }
  m.num("sim.wheel_hit_frac", ratio(count(kWheelHits), count(kTimersScheduled)));
  m.num("sim.delta_cycles", count(kDeltaCycles));
  m.num("sim.process_activations", count(kProcessActivations));
  m.num("sim.clock_ticks", count(kClockTicks));
  m.num("sim.host_ns_per_timer",
        ratio(one.measure_host_s * 1e9,
              double(one.measure_counters[kTimersFired])));
  m.num("sim.snapshot_save_us", median(durations("snapshot.save")) * 1e6);
  m.num("sim.snapshot_restore_us", median(durations("snapshot.restore")) * 1e6);
  m.num("sim.snapshot_bytes", median(one.snapshot_bytes));
  m.num("phy.bits_driven", count(kBitsDriven));
  m.num("phy.burst_bits_frac", ratio(count(kBitsBurst), count(kBitsDriven)));
  for (Counter k : {kBurstFallbacks, kBitsFlipped, kCollisionSamples,
                    kRadioBitsSampled, kRadioBitsSent, kSyncs, kHecFailures,
                    kCrcFailures, kFecFailures, kIdTx, kFhsTx, kDataTx,
                    kDataRxOk}) {
    m.num(kCounterNames[k], count(k));
  }
  m.num("baseband.data_ok_frac", ratio(count(kDataRxOk), count(kDataTx)));
  for (Counter k : {kRetransmissions, kBackoffs, kLmPdusSent, kLmPdusReceived}) {
    m.num(kCounterNames[k], count(k));
  }
  const double sweep_1 = sum(st1.durations.at("sweep"));
  const double reps_1 = sum(st1.durations.at("replication"));
  m.num("runner.rep_dispatch_us",
        ratio((sweep_1 - reps_1) * 1e6, double(one.replications)));
  m.num("runner.worker_idle_frac",
        1.0 - ratio(sum(stp.durations.at("replication")),
                    a.threads * sum(stp.durations.at("sweep"))));

  bool ok = plain.digest == one.digest && one.digest == par.digest &&
            one.counters == par.counters;
  if (!a.job_file.empty()) {
    ok = service_leg(a, studies.front(), one, m) && ok;
  } else {
    m.num("runner.journal_append_ms.p50", 0.0);
    m.num("runner.journal_append_ms.p99", 0.0);
    m.num("runner.warmup_cache_hit_frac",
          ratio(double(one.replications - one.images_built),
                double(one.replications)));
    m.num("service.submit_ms.p50", 0.0);
    m.num("service.job_s.p50", 0.0);
    m.num("service.recover_ms", 0.0);
  }
  // Tracing overhead from the fastest of kOverheadRuns untraced and traced
  // 1-thread legs, interleaved: on a shared host one leg can run up to
  // ~1.5x slower than the next, which would swamp a few-percent overhead.
  constexpr int kOverheadRuns = 3;
  double untraced_s = plain.wall_s;
  double traced_s = one.wall_s;
  std::size_t replications = plain.replications + one.replications + par.replications;
  for (int i = 1; i < kOverheadRuns; ++i) {
    SpanLog quiet(false);
    untraced_s = std::min(untraced_s,
                          run_leg(studies, a.base_seed, 1, quiet, false).wall_s);
    SpanLog scratch(true);
    traced_s = std::min(traced_s,
                        run_leg(studies, a.base_seed, 1, scratch, true).wall_s);
    replications += 2 * one.replications;
  }
  m.num("trace.overhead_s", traced_s - untraced_s);
  m.num("trace.overhead_frac", ratio(traced_s - untraced_s, untraced_s));

  // Spans go to disk only now, after every timed leg.
  std::ofstream spans(fs::path(a.dir) / "spans.jsonl");
  for (std::size_t i = 0; i < log.spans().size(); ++i) {
    const Span& s = log.spans()[i];
    spans << "{\"id\": " << i + 1 << ", \"parent\": " << s.parent
          << ", \"name\": \"" << s.name << "\", \"thread\": " << s.thread
          << ", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
          << ", \"leg\": \"" << (i < one_end ? "1-thread" : "n-thread")
          << "\"}\n";
  }

  JsonLine self;
  for (const auto& [name, s] : st1.self_s) {
    self.num(name, s);
  }
  char digest[32];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(one.digest));
  JsonLine out;
  out.raw("correct", ok ? "true" : "false");
  out.str("digest", digest);
  out.num("replications", double(replications));  // over every leg
  out.raw("shape", shape_json(studies));
  out.num("untraced_wall_s", plain.wall_s);
  out.num("traced_wall_s", one.wall_s);
  out.num("traced_par_wall_s", par.wall_s);
  out.raw("self_s", self.text());
  out.raw("metrics", m.text());
  std::cout << out.text() << "\n";
  return 0;
}

int mode_build_type() {
#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
  JsonLine out;
  out.str("build_type", PERFBENCH_BUILD_TYPE);
  out.raw("ndebug", ndebug ? "true" : "false");
  std::cout << out.text() << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse_args(argc, argv);
    if (a.mode == "build-type") return mode_build_type();
    if (a.mode == "setup") return mode_setup(a);
    if (a.mode == "service-setup") return mode_service_setup(a);
    if (a.mode == "trace") return mode_trace(a);
    throw std::invalid_argument("unknown mode " + a.mode);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "btsc-perfbench: %s\n", e.what());
    return 1;
  }
}
