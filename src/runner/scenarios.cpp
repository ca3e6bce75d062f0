#include "runner/scenarios.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>

#include "baseband/packet.hpp"
#include "phy/channel.hpp"
#include "core/coexistence.hpp"
#include "core/experiments.hpp"
#include "core/report.hpp"
#include "core/system.hpp"
#include "runner/sweep.hpp"
#include "runner/warmup_store.hpp"
#include "sim/checkpoint_store.hpp"
#include "sim/environment.hpp"
#include "stats/accumulator.hpp"

namespace btsc::runner {
namespace {

using baseband::PacketType;

/// Per-point aggregate of the master-activity sweep (Fig. 10): TX/RX
/// duty cycles plus the message count.
struct ActivitySample {
  stats::Accumulator tx;
  stats::Accumulator rx;
  stats::Accumulator messages;

  void merge(const ActivitySample& o) {
    tx.merge(o.tx);
    rx.merge(o.rx);
    messages.merge(o.messages);
  }

  template <class Self, class Ar>
  static void io(Self& s, Ar& a) {
    a.io(s.tx, s.rx, s.messages);
  }
  void save_state(sim::SnapshotWriter& w) const { io(*this, w); }
  void restore_state(sim::SnapshotReader& r) { io(*this, r); }
};

/// Per-point aggregate of sweeps whose replications yield one scalar
/// (slave activity total, goodput...).
struct ScalarSample {
  stats::Accumulator value;

  void merge(const ScalarSample& o) { value.merge(o.value); }

  template <class Self, class Ar>
  static void io(Self& s, Ar& a) {
    a.io(s.value);
  }
  void save_state(sim::SnapshotWriter& w) const { io(*this, w); }
  void restore_state(sim::SnapshotReader& r) { io(*this, r); }
};

/// Triple of accumulators for the coexistence study.
struct CoexSample {
  stats::Accumulator goodput;
  stats::Accumulator retx;
  stats::Accumulator collisions;

  void merge(const CoexSample& o) {
    goodput.merge(o.goodput);
    retx.merge(o.retx);
    collisions.merge(o.collisions);
  }

  template <class Self, class Ar>
  static void io(Self& s, Ar& a) {
    a.io(s.goodput, s.retx, s.collisions);
  }
  void save_state(sim::SnapshotWriter& w) const { io(*this, w); }
  void restore_state(sim::SnapshotReader& r) { io(*this, r); }
};

/// Backoff-ablation aggregate: completion time over successful runs plus
/// the success ratio.
struct BackoffPoint {
  stats::Accumulator slots;
  stats::RatioCounter ok;

  void merge(const BackoffPoint& o) {
    slots.merge(o.slots);
    ok.merge(o.ok);
  }

  template <class Self, class Ar>
  static void io(Self& s, Ar& a) {
    a.io(s.slots, s.ok);
  }
  void save_state(sim::SnapshotWriter& w) const { io(*this, w); }
  void restore_state(sim::SnapshotReader& r) { io(*this, r); }
};

// ---- the staged replication ----------------------------------------------

/// Little-endian construction-parameter blobs for checkpoint recipes.
void blob_u32(std::vector<std::uint8_t>& b, std::uint32_t v) {
  const auto at = b.size();
  b.resize(at + 4);
  std::memcpy(b.data() + at, &v, 4);
}
void blob_f64(std::vector<std::uint8_t>& b, double v) {
  const auto at = b.size();
  b.resize(at + 8);
  std::memcpy(b.data() + at, &v, 8);
}

/// The store for one scenario run, or null when --checkpoint-dir is not
/// in play (the cache then stays purely in-memory). Creates the
/// directory on first use.
std::shared_ptr<const WarmupStore> make_warmup_store(
    const ScenarioInfo& info, const ScenarioRequest& req) {
  if (req.checkpoint_dir.empty() || req.cold_warmup) return nullptr;
  std::error_code ec;
  std::filesystem::create_directories(req.checkpoint_dir, ec);
  if (ec) {
    std::cerr << "btsc-sweep: cannot create checkpoint dir "
              << req.checkpoint_dir << ": " << ec.message()
              << "; continuing without spill\n";
    return nullptr;
  }
  return std::make_shared<const WarmupStore>(req.checkpoint_dir, info.id);
}

/// Lazily-built per-point warm-up images, shared by every replication of
/// a point. The first replication to arrive builds the image — loading
/// it from the durable store when one is attached and a valid checkpoint
/// exists, spilling the freshly-built image otherwise; workers on the
/// same point block on the call_once until it is ready. Slots are
/// allocated up front and never moved (std::once_flag is immovable).
class WarmupCache {
 public:
  explicit WarmupCache(std::size_t points,
                       std::shared_ptr<const WarmupStore> store = nullptr)
      : slots_(points), store_(std::move(store)) {}

  template <class Make>
  const SystemImage& get(std::size_t point, std::uint64_t warm_seed,
                         const std::vector<std::uint8_t>& config,
                         Make&& make) {
    Slot& s = slots_.at(point);
    std::call_once(s.once, [&] {
      if (store_ != nullptr) {
        if (auto img = store_->try_load(point, warm_seed, config)) {
          s.image = std::move(*img);
          return;
        }
      }
      s.image = make();
      if (store_ != nullptr) store_->save(point, warm_seed, config, s.image);
    });
    return s.image;
  }

 private:
  struct Slot {
    std::once_flag once;
    SystemImage image;
  };
  std::vector<Slot> slots_;
  std::shared_ptr<const WarmupStore> store_;
};

/// The base seed the sweep runs with.
std::uint64_t resolved_base_seed(const ScenarioInfo& info,
                                 const ScenarioRequest& req) {
  return req.base_seed != 0 ? req.base_seed : info.default_base_seed;
}

/// The warm-up stage's seed for one point: the same pure derivation the
/// grid uses for replications, at the reserved warm-up index, so it can
/// never collide with a measurement stream and is identical whether the
/// warm-up is re-run cold or forked from a snapshot.
std::uint64_t warm_seed_for(std::uint64_t base_seed, bool crn,
                            std::size_t point_index) {
  return sim::Rng::derive_stream_seed(base_seed, crn ? 0 : point_index,
                                      core::kWarmupReplicationIndex);
}

/// Shared plumbing: resolves request defaults against the registry entry,
/// trims the point list for reduced sweeps, runs and times the sweep, and
/// stamps the result metadata. Each scenario formats its own rows from
/// the returned per-point samples.
template <class Point, class Sample>
std::vector<Sample> sweep_points(
    const ScenarioInfo& info, const ScenarioRequest& req,
    std::vector<Point>& points, SweepResult& out,
    const typename SweepRunner<Point, Sample>::Body& body) {
  SweepOptions opt;
  opt.threads = req.threads;
  opt.replications = req.replications > 0
                         ? req.replications
                         : (req.quick ? info.quick_replications
                                      : info.default_replications);
  opt.base_seed = resolved_base_seed(info, req);
  opt.common_random_numbers = info.common_random_numbers;
  opt.rep_timeout_s = req.rep_timeout_s;
  opt.max_retries = req.max_retries;
  opt.keep_going = req.keep_going;
  if (req.max_points > 0 &&
      static_cast<std::size_t>(req.max_points) < points.size()) {
    points.resize(static_cast<std::size_t>(req.max_points));
  }

  out.id = info.id;
  out.threads = resolve_thread_count(opt.threads);
  out.replications = opt.replications;
  out.base_seed = opt.base_seed;
  out.quick = req.quick;
  out.max_points = req.max_points;
  out.supervised = opt.supervised();

  // The journal binds every result-defining knob of this grid; resuming
  // under any other configuration throws instead of merging foreign
  // samples.
  std::unique_ptr<SweepJournal> journal;
  if (!req.journal_path.empty()) {
    JournalConfig jc;
    jc.scenario = info.id;
    jc.base_seed = opt.base_seed;
    jc.replications = static_cast<std::uint32_t>(opt.replications);
    jc.points = static_cast<std::uint32_t>(points.size());
    jc.quick = req.quick;
    jc.max_points = req.max_points;
    jc.common_random_numbers = opt.common_random_numbers;
    // Always staged: a journal of an earlier single-stage run says
    // false, so resuming it is refused instead of merging its samples.
    jc.staged_warmup = true;
    journal =
        std::make_unique<SweepJournal>(req.journal_path, jc, req.resume);
    if (req.on_commit) journal->set_observer(req.on_commit);
  }
  SweepExecution ex;
  ex.journal = journal.get();
  ex.stop = req.stop;

  const auto t0 = std::chrono::steady_clock::now();
  auto merged = SweepRunner<Point, Sample>(opt).run(points, body, ex);
  out.quarantined = std::move(ex.quarantined);
  out.journal_skipped = ex.journal_skipped;
  out.interrupted = ex.stopped;
  out.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return merged;
}

/// A warmed-up system plus the seed its scaffold is constructed from
/// (the connected-phase warm-ups retry creation with perturbed seeds).
template <class System>
struct Warmed {
  std::unique_ptr<System> system;
  std::uint64_t construction_seed = 0;
};

Warmed<core::BluetoothSystem> warmed(core::ConnectedWarmup w) {
  return {std::move(w.system), w.construction_seed};
}

/// One study, described once. Every replication of a point is
///   img = snapshot of warmup(point, warm_seed)     [once per point]
///   measure(restore(scaffold(point, img.construction_seed), img),
///           point, rep_seed, quick)
template <class Point, class System, class Sample>
struct StagedStudy {
  /// The point parameters the warm-up depends on, as a little-endian
  /// blob compared verbatim on checkpoint load, so a checkpoint from an
  /// edited point list is a cache miss, never a wrong restore. Null =
  /// the warm-up depends on the seed alone.
  std::function<std::vector<std::uint8_t>(const Point&)> recipe;
  /// Builds the system and simulates the replication-independent prefix.
  std::function<Warmed<System>(const Point&, std::uint64_t warm_seed)> warmup;
  /// Re-runs only the warm-up's construction: the twin a snapshot
  /// restores into.
  std::function<std::unique_ptr<System>(const Point&,
                                        std::uint64_t construction_seed)>
      scaffold;
  /// The measure stage, reseeded with the replication seed.
  std::function<Sample(System&, const Point&, std::uint64_t rep_seed,
                       bool quick)>
      measure;
};

/// The one replication body of every study. The first replication of a
/// point builds (or loads) the point's warm-up image; every replication
/// restores it into a scaffold and measures. ScenarioRequest::cold_warmup
/// re-runs the warm-up instead: the reference the fork must match bit for
/// bit. The body owns what it captures, because a deadline-abandoned
/// worker may outlive the sweep.
template <class Point, class System, class Sample>
std::vector<Sample> run_staged(const ScenarioInfo& info,
                               const ScenarioRequest& req,
                               std::vector<Point>& points, SweepResult& out,
                               StagedStudy<Point, System, Sample> study) {
  const std::uint64_t base = resolved_base_seed(info, req);
  const bool crn = info.common_random_numbers;
  const bool quick = req.quick;
  const bool cold = req.cold_warmup;
  auto cache = std::make_shared<WarmupCache>(points.size(),
                                             make_warmup_store(info, req));
  return sweep_points<Point, Sample>(
      info, req, points, out,
      [study = std::move(study), base, crn, quick, cold, cache](
          const Point& p, const Replication& rep) {
        const std::uint64_t warm = warm_seed_for(base, crn, rep.point_index);
        if (cold) {
          auto w = study.warmup(p, warm);
          return study.measure(*w.system, p, rep.seed, quick);
        }
        const SystemImage& img = cache->get(
            rep.point_index, warm,
            study.recipe ? study.recipe(p) : std::vector<std::uint8_t>{},
            [&] {
              auto w = study.warmup(p, warm);
              return SystemImage{w.system->save_snapshot(),
                                 w.construction_seed};
            });
        auto sys = study.scaffold(p, img.construction_seed);
        sys->restore_snapshot(img.bytes);
        return study.measure(*sys, p, rep.seed, quick);
      });
}

// ---- Figs. 6-8: creation vs BER ----

const double kCreationBers[] = {0.0,      1.0 / 100, 1.0 / 90,
                                1.0 / 80, 1.0 / 70,  1.0 / 60,
                                1.0 / 50, 1.0 / 40,  1.0 / 30};

/// Inquiry and page timeout: the paper's 1.28 s.
constexpr std::uint32_t kCreationTimeoutSlots = 2048;

std::vector<double> creation_points(bool include_noiseless) {
  std::vector<double> bers;
  for (double b : kCreationBers) {
    if (b == 0.0 && !include_noiseless) continue;
    bers.push_back(b);
  }
  return bers;
}

/// Shared by Figs. 6-8. The warm-up is construction alone: the
/// replication seed reseeds the environment and re-randomises the slave
/// clocks at the boundary, then drives inquiry and page.
StagedStudy<double, core::BluetoothSystem, core::CreationPoint>
creation_study() {
  return {
      .recipe =
          [](const double& ber) {
            std::vector<std::uint8_t> b;
            blob_f64(b, ber);
            blob_u32(b, kCreationTimeoutSlots);
            return b;
          },
      .warmup =
          [](const double& ber, std::uint64_t seed) {
            return Warmed<core::BluetoothSystem>{
                core::make_creation_system(ber, kCreationTimeoutSlots, seed),
                seed};
          },
      .scaffold =
          [](const double& ber, std::uint64_t seed) {
            return core::make_creation_system(ber, kCreationTimeoutSlots,
                                              seed);
          },
      .measure =
          [](core::BluetoothSystem& sys, const double& ber,
             std::uint64_t rep_seed, bool) {
            core::CreationPoint p;
            p.ber = ber;
            p.add(core::run_creation_from(sys, rep_seed));
            return p;
          },
  };
}

SweepResult run_fig06(const ScenarioInfo& info, const ScenarioRequest& req) {
  SweepResult out;
  out.title =
      "Fig. 6: mean slots to complete INQUIRY vs BER (paper: 1556 @ no "
      "noise, ~1800 @ 1/30; successful runs, 1.28 s timeout)";
  out.columns = {"1/BER", "mean_TS", "ci95_TS", "runs_ok", "runs"};
  auto points = creation_points(true);
  const auto merged = run_staged(info, req, points, out, creation_study());
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto& p = merged[i];
    out.rows.push_back({points[i] > 0 ? 1.0 / points[i] : 0.0,
                        p.inquiry_slots.mean(),
                        p.inquiry_slots.ci95_half_width(),
                        static_cast<double>(p.inquiry_ok.successes()),
                        static_cast<double>(p.inquiry_ok.trials())});
  }
  out.notes.push_back("1/BER = 0 denotes the noiseless channel");
  return out;
}

SweepResult run_fig07(const ScenarioInfo& info, const ScenarioRequest& req) {
  SweepResult out;
  out.title =
      "Fig. 7: mean slots to complete PAGE vs BER (paper: 17 @ no noise; "
      "impossible beyond ~1/30)";
  out.columns = {"1/BER", "mean_TS", "ci95_TS", "runs_ok", "attempted"};
  auto points = creation_points(true);
  const auto merged = run_staged(info, req, points, out, creation_study());
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto& p = merged[i];
    out.rows.push_back({points[i] > 0 ? 1.0 / points[i] : 0.0,
                        p.page_slots.mean(), p.page_slots.ci95_half_width(),
                        static_cast<double>(p.page_ok.successes()),
                        static_cast<double>(p.page_ok.trials())});
  }
  out.notes.push_back("page is attempted only after a successful inquiry");
  return out;
}

SweepResult run_fig08(const ScenarioInfo& info, const ScenarioRequest& req) {
  SweepResult out;
  out.title =
      "Fig. 8: piconet creation failure probability vs BER (inquiry and "
      "page curves; paper: page >95% failure beyond 1/40)";
  out.columns = {"1/BER",     "inq_fail", "inq_lo", "inq_hi",
                 "page_fail", "page_lo",  "page_hi"};
  auto points = creation_points(false);
  const auto merged = run_staged(info, req, points, out, creation_study());
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto& p = merged[i];
    const auto [ilo, ihi] = p.inquiry_ok.wilson95();
    const auto [plo, phi] = p.page_ok.wilson95();
    out.rows.push_back({1.0 / points[i], 1.0 - p.inquiry_ok.ratio(),
                        1.0 - ihi, 1.0 - ilo, 1.0 - p.page_ok.ratio(),
                        1.0 - phi, 1.0 - plo});
  }
  out.notes.push_back(
      "page failure is conditional on inquiry success; both phases must "
      "succeed to create the piconet");
  return out;
}

// ---- Fig. 10: master activity vs duty ----

SweepResult run_fig10(const ScenarioInfo& info, const ScenarioRequest& req) {
  SweepResult out;
  out.title =
      "Fig. 10: master RF activity vs duty cycle (paper: linear, TX above "
      "RX, ~0.3% TX at 2% duty with short DM1 packets)";
  out.columns = {"duty_%", "tx_%", "rx_%", "total_%", "messages"};
  std::vector<double> points = {0.0,    0.0025, 0.005, 0.0075, 0.01,
                                0.0125, 0.015,  0.0175, 0.02};
  const auto merged = run_staged(
      info, req, points, out,
      StagedStudy<double, core::BluetoothSystem, ActivitySample>{
          .recipe = nullptr,  // the warm-up is duty-independent
          .warmup =
              [](const double&, std::uint64_t seed) {
                return warmed(core::master_activity_warmup(seed));
              },
          .scaffold =
              [](const double&, std::uint64_t seed) {
                return core::master_activity_scaffold(seed);
              },
          .measure =
              [](core::BluetoothSystem& sys, const double& duty,
                 std::uint64_t rep_seed, bool quick) {
                core::MasterActivityConfig cfg;
                cfg.seed = rep_seed;
                cfg.measure_slots = quick ? 8000 : 40000;
                const auto row = core::run_master_activity_from(sys, duty, cfg);
                ActivitySample s;
                s.tx.add(row.master.tx_fraction);
                s.rx.add(row.master.rx_fraction);
                s.messages.add(static_cast<double>(row.messages));
                return s;
              },
      });
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto& s = merged[i];
    out.rows.push_back({100.0 * points[i], 100.0 * s.tx.mean(),
                        100.0 * s.rx.mean(),
                        100.0 * (s.tx.mean() + s.rx.mean()),
                        s.messages.mean()});
  }
  out.notes.push_back(
      "payload: 1-byte DM1 (186 us on air), poll interval 4000 slots to "
      "isolate traffic-driven activity");
  return out;
}

// ---- Figs. 11-12: slave activity in sniff / hold ----

/// Sniff/hold parameter in slots; nullopt = the active-mode baseline.
using ModePoint = std::optional<std::uint32_t>;
using ModeStudy = StagedStudy<ModePoint, core::BluetoothSystem, ScalarSample>;

ScalarSample scalar(double v) {
  ScalarSample s;
  s.value.add(v);
  return s;
}

/// Shared shape of the two slave low-power figures: point 0 is the
/// active-mode baseline (nullopt), later points sweep the mode
/// parameter, and every data row pairs its value with the baseline
/// column. The baseline rides along for free, so --max-points N means
/// N *data* rows (baseline excluded).
SweepResult run_baseline_vs_mode(const ScenarioInfo& info,
                                 const ScenarioRequest& req, std::string title,
                                 std::vector<std::string> columns,
                                 std::vector<ModePoint> points,
                                 std::string note, ModeStudy study) {
  SweepResult out;
  out.title = std::move(title);
  out.columns = std::move(columns);
  ScenarioRequest with_baseline = req;
  if (with_baseline.max_points > 0) ++with_baseline.max_points;
  const auto merged =
      run_staged(info, with_baseline, points, out, std::move(study));
  out.max_points = req.max_points;  // report the user's value, not the bump
  const double active = merged[0].value.mean();
  for (std::size_t i = 1; i < points.size(); ++i) {
    out.rows.push_back({static_cast<double>(*points[i]), 100.0 * active,
                        100.0 * merged[i].value.mean()});
  }
  out.notes.push_back(std::move(note));
  return out;
}

SweepResult run_fig11(const ScenarioInfo& info, const ScenarioRequest& req) {
  return run_baseline_vs_mode(
      info, req,
      "Fig. 11: slave RF activity vs Tsniff, active vs sniff (master data "
      "every 100 slots; paper: crossover ~30, saving at 100)",
      {"Tsniff", "active_%", "sniff_%"},
      {std::nullopt, 10u, 20u, 30u, 40u, 50u, 60u, 80u, 100u},
      "active slave: slot-start carrier sensing + data reception + ACKs + "
      "poll traffic",
      {.recipe = nullptr,  // the warm-up is mode-independent
       .warmup =
           [](const ModePoint&, std::uint64_t seed) {
             return warmed(core::sniff_activity_warmup(seed));
           },
       .scaffold =
           [](const ModePoint&, std::uint64_t seed) {
             return core::sniff_activity_scaffold(seed);
           },
       .measure =
           [](core::BluetoothSystem& sys, const ModePoint& tsniff,
              std::uint64_t rep_seed, bool quick) {
             core::SniffActivityConfig cfg;
             cfg.seed = rep_seed;
             cfg.measure_slots = quick ? 8000 : 30000;
             return scalar(
                 core::run_sniff_activity_from(sys, tsniff, cfg).slave.total());
           }});
}

SweepResult run_fig12(const ScenarioInfo& info, const ScenarioRequest& req) {
  return run_baseline_vs_mode(
      info, req,
      "Fig. 12: slave RF activity vs Thold, hold vs active (paper: active "
      "flat 2.6%, crossover ~120 slots)",
      {"Thold", "active_%", "hold_%"},
      {std::nullopt, 40u, 80u, 120u, 160u, 200u, 400u, 600u, 800u, 1000u},
      "hold cycles repeat back to back with an 8-slot gap; the resync cost "
      "is ~2.5 slots of full listening per cycle",
      {.recipe = nullptr,  // the warm-up is mode-independent
       .warmup =
           [](const ModePoint&, std::uint64_t seed) {
             return warmed(core::hold_activity_warmup(seed));
           },
       .scaffold =
           [](const ModePoint&, std::uint64_t seed) {
             return core::hold_activity_scaffold(seed);
           },
       .measure =
           [](core::BluetoothSystem& sys, const ModePoint& thold,
              std::uint64_t rep_seed, bool quick) {
             core::HoldActivityConfig cfg;
             cfg.seed = rep_seed;
             cfg.min_measure_slots = quick ? 8000 : 30000;
             return scalar(
                 core::run_hold_activity_from(sys, thold, cfg).slave.total());
           }});
}

// ---- Extension: packet type x BER throughput matrix ----

struct ThroughputPoint {
  PacketType type;
  double ber;
};

SweepResult run_throughput_scenario(const ScenarioInfo& info,
                                    const ScenarioRequest& req) {
  SweepResult out;
  out.title =
      "Extension: ACL goodput (kb/s) per packet type vs BER (saturated "
      "master->slave link with 1-bit ARQ)";
  out.columns = {"1/BER", "DM1", "DH1", "DM3", "DH3", "DM5", "DH5"};
  const PacketType types[] = {PacketType::kDm1, PacketType::kDh1,
                              PacketType::kDm3, PacketType::kDh3,
                              PacketType::kDm5, PacketType::kDh5};
  const double bers[] = {0.0,       1.0 / 5000, 1.0 / 1000,
                         1.0 / 500, 1.0 / 200,  1.0 / 100};
  // Flatten the matrix so every (type, BER) cell is its own sweep point:
  // the whole matrix spreads across the pool at once.
  std::vector<ThroughputPoint> points;
  for (double ber : bers) {
    for (PacketType t : types) points.push_back({t, ber});
  }
  // Images are keyed per (type, BER) cell: even under common random
  // numbers the warm-up system differs by packet type.
  const auto merged = run_staged(
      info, req, points, out,
      StagedStudy<ThroughputPoint, core::BluetoothSystem, ScalarSample>{
          .recipe =
              [](const ThroughputPoint& p) {
                std::vector<std::uint8_t> b;
                blob_u32(b, static_cast<std::uint32_t>(p.type));
                return b;
              },
          .warmup =
              [](const ThroughputPoint& p, std::uint64_t seed) {
                return warmed(core::throughput_warmup(p.type, seed));
              },
          .scaffold =
              [](const ThroughputPoint& p, std::uint64_t seed) {
                return core::throughput_scaffold(p.type, seed);
              },
          .measure =
              [](core::BluetoothSystem& sys, const ThroughputPoint& p,
                 std::uint64_t rep_seed, bool quick) {
                core::ThroughputConfig cfg;
                cfg.seed = rep_seed;
                cfg.measure_slots = quick ? 3000 : 8000;
                return scalar(
                    core::run_throughput_from(sys, p.type, p.ber, cfg)
                        .goodput_kbps);
              },
      });
  // A --max-points cut can land mid-row; rows must keep the declared
  // column arity, so only complete BER rows are emitted and the cut is
  // called out in a note instead of being silently swallowed.
  const std::size_t ntypes = std::size(types);
  for (std::size_t b = 0; b + 1 <= merged.size() / ntypes; ++b) {
    const double ber = points[b * ntypes].ber;
    std::vector<double> row = {ber > 0 ? 1.0 / ber : 0.0};
    for (std::size_t t = 0; t < ntypes; ++t) {
      row.push_back(merged[b * ntypes + t].value.mean());
    }
    out.rows.push_back(row);
  }
  if (const std::size_t rem = merged.size() % ntypes; rem != 0) {
    out.notes.push_back("--max-points cut mid-row: dropped " +
                        std::to_string(rem) +
                        " trailing cell(s) of an incomplete BER row");
  }
  out.notes.push_back(
      "expected shape: clean-channel ceilings DH5 723 / DM5 478 kb/s; DM "
      "types overtake DH as BER grows; short packets degrade most "
      "gracefully");
  return out;
}

// ---- Extension: coexistence ----

SweepResult run_coexistence_scenario(const ScenarioInfo& info,
                                     const ScenarioRequest& req) {
  SweepResult out;
  out.title =
      "Extension: victim-link goodput vs neighbour piconet load (DM1 "
      "traffic; independent hop sequences overlap on ~1/79 of slots)";
  out.columns = {"nbr_period", "goodput_kbps", "retx", "collisions"};
  std::vector<std::uint32_t> points = {0, 64, 16, 8, 4, 2};
  const auto merged = run_staged(
      info, req, points, out,
      StagedStudy<std::uint32_t, core::TwoPiconets, CoexSample>{
          .recipe = nullptr,  // the warm-up is load-independent
          // Both piconets connect via the environment RNG, so the
          // construction seed is the warm-up seed itself (no retry
          // reconstruction as in the single-piconet studies).
          .warmup =
              [](const std::uint32_t&, std::uint64_t seed) {
                return Warmed<core::TwoPiconets>{
                    core::coexistence_warmup(seed), seed};
              },
          .scaffold =
              [](const std::uint32_t&, std::uint64_t seed) {
                return core::coexistence_scaffold(seed);
              },
          .measure =
              [](core::TwoPiconets& net, const std::uint32_t& period,
                 std::uint64_t rep_seed, bool quick) {
                core::CoexistenceRunConfig cfg;
                cfg.seed = rep_seed;
                cfg.measure_slots = quick ? 8000 : 24000;
                const auto row = core::run_coexistence_from(net, period, cfg);
                CoexSample s;
                s.goodput.add(row.goodput_kbps);
                s.retx.add(static_cast<double>(row.retransmissions));
                s.collisions.add(static_cast<double>(row.collision_samples));
                return s;
              },
      });
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto& s = merged[i];
    out.rows.push_back({static_cast<double>(points[i]), s.goodput.mean(),
                        s.retx.mean(), s.collisions.mean()});
  }
  out.notes.push_back(
      "nbr_period = neighbour's data period in slots (0 = silent); "
      "smaller period = heavier interference");
  return out;
}

// ---- Ablation: inquiry backoff ceiling ----

SweepResult run_backoff_scenario(const ScenarioInfo& info,
                                 const ScenarioRequest& req) {
  SweepResult out;
  out.title =
      "Ablation: inquiry backoff ceiling vs mean inquiry time and success "
      "probability (noiseless, 1.28 s timeout; spec ceiling is 1023)";
  out.columns = {"backoff_max", "mean_TS", "ok", "runs"};
  std::vector<std::uint32_t> points = {0u, 127u, 255u, 511u, 1023u, 2047u};
  const auto merged = run_staged(
      info, req, points, out,
      StagedStudy<std::uint32_t, core::BluetoothSystem, BackoffPoint>{
          .recipe =
              [](const std::uint32_t& backoff) {
                std::vector<std::uint8_t> b;
                blob_u32(b, backoff);
                return b;
              },
          .warmup =
              [](const std::uint32_t& backoff, std::uint64_t seed) {
                return Warmed<core::BluetoothSystem>{
                    core::make_backoff_system(backoff, seed), seed};
              },
          .scaffold =
              [](const std::uint32_t& backoff, std::uint64_t seed) {
                return core::make_backoff_system(backoff, seed);
              },
          .measure =
              [](core::BluetoothSystem& sys, const std::uint32_t&,
                 std::uint64_t rep_seed, bool) {
                const core::BackoffSample r =
                    core::run_backoff_from(sys, rep_seed);
                BackoffPoint p;
                p.ok.add(r.success);
                if (r.success) p.slots.add(static_cast<double>(r.slots));
                return p;
              },
      });
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto& p = merged[i];
    out.rows.push_back({static_cast<double>(points[i]), p.slots.mean(),
                        static_cast<double>(p.ok.successes()),
                        static_cast<double>(p.ok.trials())});
  }
  out.notes.push_back(
      "larger ceilings push completions past the timeout: the backoff "
      "trades collision avoidance against discovery time");
  return out;
}

using ScenarioFn =
    SweepResult (*)(const ScenarioInfo&, const ScenarioRequest&);

struct ScenarioEntry {
  ScenarioInfo info;
  ScenarioFn run;
};

const ScenarioEntry* find_entry(const std::string& id_or_figure);

const std::vector<ScenarioEntry>& registry() {
  static const std::vector<ScenarioEntry> entries = {
      {{"fig06", "6",
        "mean slots to complete the inquiry phase vs channel BER", 40, 8,
        1000},
       &run_fig06},
      {{"fig07", "7", "mean slots to complete the page phase vs channel BER",
        40, 8, 1000},
       &run_fig07},
      {{"fig08", "8",
        "probability of failure of piconet creation (inquiry/page) vs BER",
        40, 10, 1000},
       &run_fig08},
      {{"fig10", "10", "master RF activity (TX/RX) vs channel duty cycle", 1,
        1, 1, true},
       &run_fig10},
      {{"fig11", "11", "slave RF activity vs Tsniff, active vs sniff mode",
        1, 1, 1, true},
       &run_fig11},
      {{"fig12", "12", "slave RF activity vs Thold, hold vs active mode", 1,
        1, 1, true},
       &run_fig12},
      {{"throughput", "",
        "ACL goodput per packet type (DM/DH 1/3/5) vs BER", 1, 1, 1, true},
       &run_throughput_scenario},
      {{"coexistence", "",
        "victim-link goodput vs neighbour piconet offered load", 1, 1, 2030,
        true},
       &run_coexistence_scenario},
      {{"backoff", "",
        "ablation: inquiry random-backoff ceiling vs discovery time", 30, 8,
        500, true},
       &run_backoff_scenario},
  };
  return entries;
}

const ScenarioEntry* find_entry(const std::string& id_or_figure) {
  for (const auto& e : registry()) {
    if (e.info.id == id_or_figure ||
        (!e.info.figure.empty() && e.info.figure == id_or_figure)) {
      return &e;
    }
  }
  return nullptr;
}

}  // namespace

const std::vector<ScenarioInfo>& scenarios() {
  static const std::vector<ScenarioInfo> infos = [] {
    std::vector<ScenarioInfo> v;
    for (const auto& e : registry()) v.push_back(e.info);
    return v;
  }();
  return infos;
}

const ScenarioInfo* find_scenario(const std::string& id_or_figure) {
  const ScenarioEntry* e = find_entry(id_or_figure);
  return e ? &e->info : nullptr;
}

SweepResult run_scenario(const std::string& id_or_figure,
                         const ScenarioRequest& request) {
  const ScenarioEntry* e = find_entry(id_or_figure);
  if (!e) throw std::invalid_argument("unknown scenario: " + id_or_figure);
  return e->run(e->info, request);
}

void write_result(const SweepResult& result, core::Reporter& reporter) {
  // Deliberately no thread count here: the report must be byte-identical
  // at any parallelism, so only result-defining parameters are recorded
  // (the CLI prints threads and wall time on stdout instead).
  reporter.begin(result.title);
  reporter.meta("scenario", result.id);
  reporter.meta("replications", std::to_string(result.replications));
  reporter.meta("base_seed", std::to_string(result.base_seed));
  reporter.meta("quick", result.quick ? "1" : "0");
  reporter.meta("max_points", std::to_string(result.max_points));
  // Quarantine outcome, emitted ONLY for supervised runs so legacy
  // artifacts stay byte-identical to every pre-supervision run.
  if (result.supervised) {
    reporter.meta("quarantined", std::to_string(result.quarantined.size()));
  }
  reporter.columns(result.columns);
  for (const auto& row : result.rows) reporter.row(row);
  for (const auto& note : result.notes) reporter.note(note);
  for (const auto& q : result.quarantined) {
    reporter.note("quarantined: point=" + std::to_string(q.point_index) +
                  " replication=" + std::to_string(q.replication_index) +
                  " seed=" + std::to_string(q.seed) +
                  " attempts=" + std::to_string(q.attempts) +
                  (q.timed_out ? " timeout: " : " error: ") + q.error);
  }
  reporter.end();
}

std::string quarantine_report(const SweepResult& result) {
  std::string out = "{\"scenario\": \"" + core::json_escape(result.id) +
                    "\", \"base_seed\": " + std::to_string(result.base_seed) +
                    ", \"quarantined\": [";
  for (std::size_t i = 0; i < result.quarantined.size(); ++i) {
    const QuarantineEntry& q = result.quarantined[i];
    out += std::string(i ? ", " : "") + "{\"point\": " +
           std::to_string(q.point_index) +
           ", \"replication\": " + std::to_string(q.replication_index) +
           ", \"seed\": " + std::to_string(q.seed) +
           ", \"attempts\": " + std::to_string(q.attempts) +
           ", \"timed_out\": " + (q.timed_out ? "true" : "false") +
           ", \"error\": \"" + core::json_escape(q.error) + "\"}";
  }
  out += "]}\n";
  return out;
}

namespace {

std::unique_ptr<core::Reporter> make_reporter(const core::BenchArgs& args,
                                              std::ostream& os) {
  // Explicit --json/--csv flags win; the --out suffix is only a fallback.
  if (args.json) return std::make_unique<core::JsonReporter>(os);
  if (args.csv) return std::make_unique<core::CsvReporter>(os);
  if (args.out.ends_with(".json")) {
    return std::make_unique<core::JsonReporter>(os);
  }
  if (args.out.ends_with(".csv")) {
    return std::make_unique<core::CsvReporter>(os);
  }
  return std::make_unique<core::TextReporter>(os);
}

}  // namespace

const char* sweep_usage() {
  return
      "usage: btsc-sweep (--list | --fig N | --scenario ID) [options]\n"
      "\n"
      "options:\n"
      "  --list               list registered scenarios and exit\n"
      "  --fig N              run the scenario reproducing paper figure N\n"
      "  --scenario ID        run a scenario by id (see --list)\n"
      "  --threads N          worker threads (default 1; 0 = hardware)\n"
      "  --seeds N            replications per point (0 = scenario default)\n"
      "  --replications N     alias for --seeds\n"
      "  --quick              reduced replications and windows\n"
      "  --base-seed S        root of the deterministic seed derivation\n"
      "  --max-points N       keep only the first N sweep points\n"
      "  --csv | --json       output format (default: text table)\n"
      "  --out FILE           write to FILE (.json/.csv picks the format)\n"
      "  --no-burst           per-bit PHY reference transport (bit-identical\n"
      "                       results; swap-safety escape hatch)\n"
      "  --checkpoint-dir DIR spill/load the per-point warm-up snapshots as\n"
      "                       durable checkpoint files, so a later run\n"
      "                       skips the warm-ups this one paid for\n"
      "  --journal FILE       fsync each completed replication to an\n"
      "                       append-only journal (crash-safe progress)\n"
      "  --resume             skip replications already in --journal FILE;\n"
      "                       output is byte-identical to an uninterrupted\n"
      "                       run\n"
      "  --rep-timeout S      per-replication deadline in seconds (finite;\n"
      "                       <= 0 = none); overruns are quarantined, the\n"
      "                       sweep completes\n"
      "  --max-retries N      retry a throwing replication N times (with\n"
      "                       backoff) before quarantining it\n"
      "  --keep-going         quarantine failing replications instead of\n"
      "                       aborting the sweep (exit code 3 if any)\n"
      "  --quarantine-out F   write the JSON quarantine report to F\n";
}

int run_scenario_main(const std::string& id, int argc, char** argv) {
  const auto args = core::BenchArgs::parse(argc, argv);
  if (args.bad_usage(std::cerr, "btsc-sweep", sweep_usage())) return 2;
  if (args.threads < 0 || args.seeds < 0 || args.max_points < 0 ||
      args.max_retries < 0) {
    std::cerr << "btsc-sweep: negative counts are invalid (--threads, "
                 "--seeds/--replications, --max-points, --max-retries)\n";
    return 2;
  }
  // Swap-safety escape hatch: force the per-bit reference transport for
  // every channel this process builds. Artifacts are byte-identical
  // either way (ci.sh gates on it); only the run time changes.
  phy::NoisyChannel::set_burst_transport_default(!args.no_burst);
  ScenarioRequest req;
  req.threads = args.threads;
  req.replications = args.seeds;
  req.quick = args.quick;
  req.base_seed = args.base_seed;
  req.max_points = args.max_points;
  req.journal_path = args.journal;
  req.resume = args.resume;
  req.checkpoint_dir = args.checkpoint_dir;
  req.rep_timeout_s = args.rep_timeout;
  req.max_retries = args.max_retries;
  req.keep_going = args.keep_going;
  if (req.resume && req.journal_path.empty()) {
    std::cerr << "btsc-sweep: --resume requires --journal FILE\n";
    return 2;
  }

  SweepResult result;
  try {
    result = run_scenario(id, req);
  } catch (const std::exception& e) {
    std::cerr << "btsc-sweep: " << e.what() << "\n";
    return 1;
  }
  if (!req.journal_path.empty()) {
    std::cout << result.id << ": journal resumed " << result.journal_skipped
              << " completed replication(s) from " << req.journal_path
              << "\n";
  }

  if (args.out.empty()) {
    write_result(result, *make_reporter(args, std::cout));
  } else {
    std::ofstream file(args.out);
    if (!file) {
      std::cerr << "btsc-sweep: cannot open " << args.out << "\n";
      return 1;
    }
    write_result(result, *make_reporter(args, file));
    file.close();
    if (!file) {
      std::cerr << "btsc-sweep: write failed for " << args.out << "\n";
      return 1;
    }
    std::cout << result.id << ": " << result.rows.size() << " points x "
              << result.replications << " replications on " << result.threads
              << " thread(s) in " << result.wall_seconds << " s -> "
              << args.out << "\n";
  }

  // Graceful degradation: completed rows were emitted above; the
  // quarantine report and a distinct exit code tell drivers the result
  // is partial and exactly which replications to chase.
  if (result.supervised) {
    const std::string report = quarantine_report(result);
    if (!args.quarantine_out.empty()) {
      std::ofstream qfile(args.quarantine_out);
      if (!qfile) {
        std::cerr << "btsc-sweep: cannot open " << args.quarantine_out
                  << "\n";
        return 1;
      }
      qfile << report;
    } else if (!result.quarantined.empty()) {
      std::cerr << report;
    }
    if (!result.quarantined.empty()) return 3;
  }
  return 0;
}

}  // namespace btsc::runner
