// serve-mined / serve-flood: `aar_node serve` driven over loopback by the
// causal open-loop generator, measured from the daemon's side (/proc and
// admin counter deltas).
//
// Untraced run: set-up samples (spawn -> all connections on the roster),
// then several daemons each warmed up and measured at the reference rate
// (latency, answered fraction, CPU and RSS), then rate-ladder climbs for
// capacity on the three with the median answered shares.
// Traced run: the same daemons, then the median one's reference step again
// with generator spans, and an offline replay of that step's captured
// frames through the node's layer functions on one thread, which splits
// the per-query cost into stages.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "core/forwarder.hpp"
#include "generator.hpp"
#include "gnutella/capture.hpp"
#include "gnutella/codec.hpp"
#include "node/snapshot.hpp"
#include "probe.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace aar;
namespace {

// Daemon settings: `aar_node serve` defaults, on two shards.
constexpr std::size_t kThreads = 2;
constexpr std::size_t kWindow = 4096;
constexpr std::size_t kRebuildEvery = 64;
constexpr std::size_t kTopK = 2;
constexpr std::size_t kConnections = 4;

// Run shape.
constexpr int kDaemons = 9;       ///< daemons measured at the reference rate
constexpr int kSetupSpawns = 40;  ///< extra spawn-only daemons for setup_s
constexpr double kWarmupS = 0.4;  ///< per daemon, before its reference steps
constexpr double kStepS = 0.8;    ///< one rung attempt
constexpr int kRungAttempts = 3;  ///< a rung fails only after this many
/// Ladder climbs per untraced run, each on its own daemon (the ones with
/// the median answered shares); capacity_qps is their median.  The first
/// climbs from the bottom rung, the others from kClimbBracket rungs below
/// the first one's result.
constexpr std::size_t kClimbs = 3;
constexpr std::size_t kClimbBracket = 4;
constexpr double kGrowthLimitMs = 10.0;  ///< median latency growth in a rung
/// A rung must answer this share of what the same daemon answered (per
/// answerable query) at the reference rate.
constexpr double kDeliveryShare = 0.99;
/// A step during which the hypervisor stole more than this share of the
/// guest's CPU time measures the host, not the daemon.  Such a reference
/// step is run again (the last attempt is kept either way), and such a
/// failed rung attempt does not count against the rung, within budgets.
constexpr double kStealLimit = 0.05;
constexpr int kReferenceStealRetries = 2;  ///< per reference step
constexpr int kLadderStealRetries = 10;    ///< per ladder climb

// Daemon and generator on disjoint CPUs (when the host has enough), so the
// load generator never competes with the shards it measures.
const std::vector<int> kDaemonCpus{0, 1};
const std::vector<int> kGeneratorCpus{2, 3};

/// Daemon-side deltas over one step.
struct StepProbe {
  ProcSample proc_before;
  ProcSample proc_after;
  std::map<std::string, double> stats_before;
  std::map<std::string, double> stats_after;
  std::string metrics_before;  ///< admin `metrics` documents
  std::string metrics_after;
  HostCpu host_before;
  HostCpu host_after;

  [[nodiscard]] double delta(const std::string& name) const {
    const auto get = [&name](const std::map<std::string, double>& stats) {
      const auto it = stats.find(name);
      return it == stats.end() ? 0.0 : it->second;
    };
    return get(stats_after) - get(stats_before);
  }
  /// Mean of a registry timer over the step, in microseconds.
  [[nodiscard]] double timer_mean_us(const std::string& name) const {
    const TimerReading before = metrics_timer(metrics_before, name);
    const TimerReading after = metrics_timer(metrics_after, name);
    return static_cast<double>(after.total_ns - before.total_ns) /
           static_cast<double>(std::max<std::uint64_t>(after.count - before.count, 1)) / 1e3;
  }
  [[nodiscard]] double steal() const { return steal_share(host_before, host_after); }
  [[nodiscard]] double wall_s() const {
    return static_cast<double>(proc_after.at_ns - proc_before.at_ns) / 1e9;
  }
  [[nodiscard]] double cpu_s() const {
    return static_cast<double>(proc_after.cpu_ns - proc_before.cpu_ns) / 1e9;
  }
};

struct Serving {
  std::unique_ptr<DaemonProcess> daemon;
  std::unique_ptr<Generator> generator;
};

class ServeBench {
 public:
  ServeBench(const Options& options, bool flood)
      : options_(options), flood_(flood) {
    const std::size_t hardware = std::thread::hardware_concurrency();
    const auto fits = [hardware](const std::vector<int>& cpus) {
      return std::all_of(cpus.begin(), cpus.end(),
                         [hardware](int cpu) { return static_cast<std::size_t>(cpu) < hardware; });
    };
    if (fits(kDaemonCpus) && fits(kGeneratorCpus)) {
      daemon_cpus_ = kDaemonCpus;
      pin_current_thread(kGeneratorCpus);
      note("cpus: daemon 0-1, generator 2-3");
    } else {
      note("cpus: " + std::to_string(hardware) + " online, daemon and generator unpinned");
    }
  }

  Result run();

 private:
  StepConfig step_config(double rate, double seconds) {
    StepConfig config;
    config.rate_qps = rate;
    config.seconds = seconds;
    config.query_bytes = static_cast<std::size_t>(options_.num("query-bytes"));
    config.answer_share = options_.num("answer-share");
    config.seed = options_.seed;
    config.step = ++step_;
    return config;
  }

  Serving spawn(int index) {
    Serving serving;
    const std::vector<std::string> args{
        "--threads",       std::to_string(kThreads),      "--window", std::to_string(kWindow),
        "--rebuild-every", std::to_string(kRebuildEvery), "--top-k",  std::to_string(kTopK),
        "--min-support",   options_.get("min-support")};
    serving.daemon = std::make_unique<DaemonProcess>(
        options_.get("aar-node"), args,
        options_.work_dir + "/daemon-" + std::to_string(index) + ".log", daemon_cpus_);
    serving.generator = std::make_unique<Generator>(serving.daemon->port(), kConnections);
    return serving;
  }

  StepResult probed_step(const StepConfig& config, StepProbe& probe) {
    const std::uint16_t admin = serving_.daemon->admin_port();
    const pid_t pid = serving_.daemon->pid();
    probe.stats_before = admin_stats(admin);
    probe.metrics_before = admin_command(admin, "metrics");
    probe.proc_before = sample_process(pid);
    probe.host_before = sample_host_cpu();
    StepResult step = serving_.generator->run_step(config);
    probe.host_after = sample_host_cpu();
    probe.proc_after = sample_process(pid);
    probe.stats_after = admin_stats(admin);
    probe.metrics_after = admin_command(admin, "metrics");
    return step;
  }

  /// Operations are the frames the generator sends (queries and hits); a
  /// failed one is a query any of whose frames failed a check, or an
  /// undecodable frame.
  void account(const StepResult& step, Result& result, bool count_losses) {
    result.attempted += step.queries + step.hits_sent;
    result.failed += step.malformed +
                     (count_losses ? step.failed_queries_with_losses : step.failed_queries);
    ttl_violations_ += step.ttl_violations;
    malformed_ += step.malformed + step.misdelivered + step.echoed;
  }

  /// `reference_answered` is the same daemon's answered/answerable share at
  /// the reference rate: top-k routing answers less than every answerable
  /// query by design, so a rung is held to what this daemon delivers
  /// unloaded.  Relays the daemon drops (full outbound queues) fail it too,
  /// unanswerable ones included.
  bool step_passes(const StepResult& step, const StepProbe& probe,
                   double reference_answered, std::string& why) const {
    const double limit = options_.num("latency-limit-ms");
    const double offered = static_cast<double>(step.frames_sent());
    const double processed = probe.delta("node.messages_in");
    const double p99 = percentile(step.latency_ms, 99.0).value_or(0.0);
    // Backlog growth: a daemon that keeps pace answers the step's last
    // quarter of queries as fast as its first; one that falls behind
    // queues them, and their latency (timed from the due time) climbs.
    const std::size_t quarter = step.latency_ms.size() / 4;
    const std::vector<double> head(step.latency_ms.begin(),
                                   step.latency_ms.begin() + static_cast<std::ptrdiff_t>(quarter));
    const std::vector<double> tail(step.latency_ms.end() - static_cast<std::ptrdiff_t>(quarter),
                                   step.latency_ms.end());
    const double growth = median(tail).value_or(0.0) - median(head).value_or(0.0);
    const double answered = answered_share(step);
    const double dropped = probe.delta("node.dropped");
    std::ostringstream out;
    out << "processed/offered " << fmt(processed / std::max(offered, 1.0))
        << ", answered " << fmt(answered, 4) << " (reference " << fmt(reference_answered, 4)
        << "), dropped " << fmt(dropped, 0) << ", p99 " << fmt(p99)
        << " ms, latency growth " << fmt(growth) << " ms, lateness p99 "
        << fmt(step.lateness_ms_p99) << " ms, backlog " << step.backlog_queries;
    why = out.str();
    return processed >= 0.99 * offered && step.queries_sent == step.queries &&
           step.lateness_ms_p99 <= limit && answered >= kDeliveryShare * reference_answered &&
           dropped == 0.0 && p99 <= limit && growth <= kGrowthLimitMs;
  }

  /// Wait until the daemon has worked off an overloaded step's backlog:
  /// its processed-frame counter stops moving (at most ~5 s).
  void settle() {
    double last = -1.0;
    for (int i = 0; i < 100; ++i) {
      const double processed = admin_stats(serving_.daemon->admin_port())["node.messages_in"];
      if (processed == last) return;
      last = processed;
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }

  static double answered_share(const StepResult& step) {
    return static_cast<double>(step.answered) /
           static_cast<double>(std::max<std::uint64_t>(step.answerable, 1));
  }

  struct RuleCheck {
    std::size_t antecedents = 0;
    std::size_t trapped = 0;  ///< consequent set differs from the top-k homes
    std::size_t consequents = 0;
  };

  /// Compare a published rule set (core::RuleSet save format) with the
  /// generator's routing structure: antecedent link l's answers come from
  /// link l + offset with the configured weights, so top-k routing should
  /// name exactly the k heaviest offsets.
  RuleCheck check_rules(const std::string& text) const {
    const std::vector<double> weights = StepConfig{}.home_weights;
    const std::size_t links = kConnections;
    const std::size_t k = kTopK;
    std::vector<std::size_t> offsets(weights.size());
    for (std::size_t i = 0; i < offsets.size(); ++i) offsets[i] = i + 1;
    std::stable_sort(offsets.begin(), offsets.end(), [&weights](std::size_t a, std::size_t b) {
      return weights[a - 1] > weights[b - 1];
    });
    offsets.resize(std::min(k, offsets.size()));
    std::map<std::size_t, std::set<std::size_t>> rules;
    std::istringstream lines(text);
    std::string line;
    std::getline(lines, line);  // header
    RuleCheck check;
    while (std::getline(lines, line)) {
      std::size_t antecedent = 0;
      std::size_t consequent = 0;
      if (std::sscanf(line.c_str(), "%zu,%zu", &antecedent, &consequent) != 2) continue;
      rules[antecedent].insert(consequent);
      ++check.consequents;
    }
    for (const auto& [antecedent, consequents] : rules) {
      std::set<std::size_t> expected;
      for (const std::size_t offset : offsets) {
        expected.insert((antecedent - 1 + offset) % links + 1);
      }
      ++check.antecedents;
      if (consequents != expected) ++check.trapped;
    }
    return check;
  }

  /// Climbs the ladder on the current daemon from rung `from` until a rung
  /// fails.  Returns the index of the last rung passed, or -1 when rung
  /// `from` fails.  The climb only goes up: an overloaded step can change
  /// which consequents the daemon's rules name, so a rung measured after
  /// one would not be comparable.  The ladder's length bounds the climb,
  /// not the clock.  A rung gets more attempts before it counts as failed,
  /// so a transient stall of the host does not end the climb.
  std::ptrdiff_t climb(const std::vector<double>& ladder, std::size_t from,
                       double reference_answered, Result& result) {
    std::ptrdiff_t passed = -1;
    int steal_retries = 0;
    for (std::size_t r = from; r < ladder.size(); ++r) {
      bool ok = false;
      for (int attempt = 0; attempt < kRungAttempts && !ok; ++attempt) {
        StepProbe rung_probe;
        const StepResult rung = probed_step(step_config(ladder[r], kStepS), rung_probe);
        account(rung, result, false);
        std::string why;
        ok = step_passes(rung, rung_probe, reference_answered, why);
        note("ladder " + fmt(ladder[r], 0) + " q/s attempt " + std::to_string(attempt + 1) +
             ": " + (ok ? "pass" : "FAIL") + " (" + why + ", steal " +
             fmt(rung_probe.steal()) + ")");
        if (!ok && rung_probe.steal() > kStealLimit && steal_retries < kLadderStealRetries) {
          ++steal_retries;
          --attempt;
        }
        if (!ok) settle();
      }
      if (!ok) return passed;
      passed = static_cast<std::ptrdiff_t>(r);
    }
    note("ladder: the top rung passed; capacity is at least the top rung");
    return passed;
  }

  void layer_metrics(const StepResult& step, const StepProbe& probe,
                     Result& result);
  void offline_replay(const StepResult& step, double cpu_us_per_query,
                      Result& result);

  const Options& options_;
  bool flood_;
  std::vector<int> daemon_cpus_;
  std::uint32_t step_ = 0;
  Serving serving_;
  std::uint64_t ttl_violations_ = 0;
  std::uint64_t malformed_ = 0;
};

/// p99 latency of each `window_s` slice of the step (by due time), appended
/// to `out`.  The run reports the median over all windows: a host stall
/// lands in a few windows instead of deciding a whole step's tail.
void windowed_p99(const StepResult& step, double window_s, std::vector<double>& out) {
  std::vector<double> window;
  double end = window_s;
  for (std::size_t i = 0; i <= step.latency_ms.size(); ++i) {
    if (i == step.latency_ms.size() || step.latency_due_s[i] >= end) {
      if (!window.empty()) out.push_back(percentile(window, 99.0).value());
      window.clear();
      end += window_s;
      if (i == step.latency_ms.size()) break;
      while (step.latency_due_s[i] >= end) end += window_s;
    }
    window.push_back(step.latency_ms[i]);
  }
}

double cpu_per_query_us(const StepProbe& probe, const StepResult& step) {
  return probe.cpu_s() * 1e6 / static_cast<double>(std::max<std::uint64_t>(step.queries_sent, 1));
}

Result ServeBench::run() {
  Result result;
  const double reference = options_.num("reference-qps");

  // ---- Daemons.  Each one is spawned (set-up: spawn -> every connection
  // on the roster), warmed up so its rules settle, and measured in short
  // reference-rate steps; the run reports medians over all of them.  A
  // daemon's first merge fixes which consequents its queries reach from
  // then on, so one daemon is a lottery; several make the result steady.
  // All stay up until the one for the rate ladder (or the traced steps) is
  // picked.
  const int daemons = kDaemons;
  const auto substeps = static_cast<std::size_t>(options_.num("reference-substeps"));
  // --seconds is the reference phase's measured time, split evenly over
  // the daemons' steps; set-up and the ladder come on top of it.
  const double substep_s =
      options_.seconds / static_cast<double>(static_cast<std::size_t>(daemons) * substeps);
  std::vector<double> setup_s;
  std::vector<double> p50s;
  std::vector<double> p99s;
  std::vector<double> answered;
  std::vector<double> cpu;
  std::vector<double> hwm_mb;
  StepProbe probe;
  StepResult ref;
  std::uint64_t lost_at_reference = 0;
  std::size_t antecedents = 0;
  std::size_t trapped = 0;
  struct Measured {
    Serving serving;
    double answered = 0.0;  ///< answered/answerable over its reference steps
    StepResult ref;         ///< its last reference step
    StepProbe probe;
  };
  std::vector<Measured> measured;
  // Extra spawn-only cycles: set-up is about 2 ms and its samples cluster
  // (1.8-2.0, 2.1-2.3 and 2.5-2.9 ms on a 4-vCPU guest), so its median
  // needs many more samples than the measured daemons give.
  for (int i = 0; i < kSetupSpawns; ++i) {
    const std::uint64_t t0 = now_ns();
    Serving serving = spawn(daemons + i);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    serving.generator.reset();
    result.check(serving.daemon->shutdown(), "daemon exits cleanly on admin shutdown");
  }
  for (int d = 0; d < daemons; ++d) {
    const std::uint64_t t0 = now_ns();
    Serving serving = spawn(d);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    serving_ = std::move(serving);
    account(serving_.generator->run_step(step_config(reference, kWarmupS)), result, false);
    std::uint64_t daemon_answerable = 0;
    std::uint64_t daemon_answers = 0;
    for (std::size_t i = 0; i < substeps; ++i) {
      for (int attempt = 0;; ++attempt) {
        ref = probed_step(step_config(reference, substep_s), probe);
        account(ref, result, true);
        lost_at_reference += ref.lost_answers();
        if (probe.steal() <= kStealLimit || attempt == kReferenceStealRetries) break;
        note("daemon " + std::to_string(d + 1) + " reference step " + std::to_string(i + 1) +
             ": steal " + fmt(probe.steal()) + ", run again");
      }
      p50s.push_back(percentile(ref.latency_ms, 50.0).value_or(0.0));
      windowed_p99(ref, options_.num("p99-window-s"), p99s);
      answered.push_back(answered_share(ref));
      daemon_answerable += ref.answerable;
      daemon_answers += ref.answered;
      cpu.push_back(cpu_per_query_us(probe, ref));
      note("daemon " + std::to_string(d + 1) + " reference " + fmt(reference, 0) +
           " q/s step " + std::to_string(i + 1) + ": " + std::to_string(ref.queries) +
           " queries, " + std::to_string(ref.answerable) + " answerable, " +
           std::to_string(ref.hits_sent) + " reached home, " + std::to_string(ref.answered) +
           " answered; latency p50 " + fmt(p50s.back()) + " ms p99 " +
           fmt(percentile(ref.latency_ms, 99.0).value_or(0.0)) + " ms (" +
           std::to_string(ref.latency_ms.size()) + " samples); daemon cpu " +
           fmt(cpu.back()) + " us/query; steal " + fmt(probe.steal()) +
           "; generator lateness p99 " +
           fmt(ref.lateness_ms_p99) + " ms");
    }
    hwm_mb.push_back(static_cast<double>(probe.proc_after.vm_hwm_kb) / 1024.0);
    const RuleCheck rules = check_rules(admin_command(serving_.daemon->admin_port(), "rules"));
    antecedents += rules.antecedents;
    trapped += rules.trapped;
    measured.push_back(Measured{std::move(serving_),
                                static_cast<double>(daemon_answers) /
                                    static_cast<double>(std::max<std::uint64_t>(daemon_answerable, 1)),
                                ref, probe});
  }
  // The ladder and the traced steps run on the daemon with the median
  // answered share.  How many consequents a daemon's rules name sets both
  // its share and its relays per query, so a daemon picked at random would
  // carry that lottery into capacity_qps.
  std::sort(measured.begin(), measured.end(),
            [](const Measured& a, const Measured& b) { return a.answered < b.answered; });
  const std::size_t pick = measured.size() / 2;
  const std::size_t keep = options_.trace ? 1 : kClimbs;
  std::vector<Measured> climbers;  // the median daemon's neighbours by share
  for (std::size_t i = 0; i < measured.size(); ++i) {
    if (i == pick) continue;
    const std::size_t distance = i < pick ? pick - i : i - pick;
    if (2 * distance < keep) {
      climbers.push_back(std::move(measured[i]));
      continue;
    }
    measured[i].serving.generator.reset();
    result.check(measured[i].serving.daemon->shutdown(), "daemon exits cleanly on admin shutdown");
  }
  serving_ = std::move(measured[pick].serving);
  ref = std::move(measured[pick].ref);
  probe = measured[pick].probe;
  const double daemon_answered = measured[pick].answered;
  note("median daemon (first ladder climb or traced steps): answered share " +
       fmt(daemon_answered, 4) + " at the reference rate");
  const double cpu_us = median(cpu).value();
  // Answered fraction is the mean over all daemons' steps: each daemon's
  // share depends on which consequents its first merge saw, and the mean is
  // the expected share of a fresh daemon.
  double mean_answered = 0.0;
  for (const double share : answered) mean_answered += share;
  mean_answered /= static_cast<double>(std::max<std::size_t>(answered.size(), 1));
  note("setup: " + std::to_string(setup_s.size()) + " spawns, median " +
       fmt(median(setup_s).value() * 1e3) + " ms, min " +
       fmt(*std::min_element(setup_s.begin(), setup_s.end()) * 1e3) + " ms, max " +
       fmt(*std::max_element(setup_s.begin(), setup_s.end()) * 1e3) + " ms");
  // The p99 is printed, not reported as a metric: across runs on a shared
  // 4-vCPU host it moved by more than the largest bound a metric may have.
  note("reference medians over " + std::to_string(p50s.size()) + " steps on " +
       std::to_string(daemons) + " daemons: p50 " + fmt(median(p50s).value()) + " ms, p99 " +
       fmt(median(p99s).value()) + " ms (median of " + std::to_string(p99s.size()) +
       " windows of " + options_.get("p99-window-s") + " s), answered (mean) " +
       fmt(mean_answered, 4) +
       ", cpu " + fmt(cpu_us) + " us/query, VmHWM " + fmt(median(hwm_mb).value()) + " MB");
  note("rules: " + std::to_string(trapped) + " of " + std::to_string(antecedents) +
       " antecedents route to other than their top-" + std::to_string(kTopK) + " homes");

  if (!options_.trace) {
    result.add("setup_s", median(setup_s).value(), "s");
    result.add("p50_ms", median(p50s).value(), "ms");
    result.add("answered_fraction", mean_answered, "fraction");
    result.add("cpu_us_per_query", cpu_us, "us");
    result.add("rss_mb", median(hwm_mb).value(), "MB");

    // ---- Rate ladder, climbed on each kept daemon; the median daemon
    // climbs first, from the bottom rung, and stays up for the checks.
    const std::vector<double> ladder = options_.list("ladder");
    const std::ptrdiff_t first = climb(ladder, 0, daemon_answered, result);
    // A failed bottom rung would report 0: the ladder no longer brackets
    // the daemon's capacity, so the run fails instead.
    result.check(first >= 0, "the ladder's lowest rung (" + fmt(ladder.front(), 0) +
                                 " q/s) passes");
    std::vector<double> capacities{first >= 0 ? ladder[static_cast<std::size_t>(first)] : 0.0};
    const std::size_t from =
        first > static_cast<std::ptrdiff_t>(kClimbBracket) ? static_cast<std::size_t>(first) - kClimbBracket : 0;
    for (Measured& climber : climbers) {
      std::swap(serving_, climber.serving);
      const std::ptrdiff_t top = climb(ladder, from, climber.answered, result);
      // A climb that fails its start rung is bounded by the rung below it.
      const std::ptrdiff_t bound = top >= 0 ? top : static_cast<std::ptrdiff_t>(from) - 1;
      result.check(bound >= 0, "the ladder's lowest rung (" + fmt(ladder.front(), 0) +
                                   " q/s) passes");
      capacities.push_back(bound >= 0 ? ladder[static_cast<std::size_t>(bound)] : 0.0);
      std::swap(serving_, climber.serving);
      climber.serving.generator.reset();
      result.check(climber.serving.daemon->shutdown(), "daemon exits cleanly on admin shutdown");
    }
    std::string list;
    for (const double capacity : capacities) list += (list.empty() ? "" : ", ") + fmt(capacity, 0);
    note("ladder: capacities " + list + " q/s; reporting the median");
    result.add("capacity_qps", median(capacities).value(), "1/s");
  } else {
    layer_metrics(ref, probe, result);
    // Tracing overhead: the same step again with generator spans on.
    result.add("node.rule_trap_share",
               static_cast<double>(trapped) /
                   static_cast<double>(std::max<std::size_t>(antecedents, 1)),
               "fraction");
    StepConfig traced = step_config(reference, substep_s);
    traced.trace = true;
    traced.capture = true;
    StepProbe traced_probe;
    const StepResult traced_step = probed_step(traced, traced_probe);
    account(traced_step, result, true);
    const double traced_cpu = cpu_per_query_us(traced_probe, traced_step);
    note("tracing overhead: cpu_us_per_query untraced " + fmt(cpu_us) +
         ", traced " + fmt(traced_cpu) + " (generator spans: " +
         std::to_string(traced_step.sender_spans.size() +
                        traced_step.receiver_spans.size()) + ")");
    result.add("trace.overhead_cpu_us_per_query", traced_cpu - cpu_us, "us");
    SpanRecorder live(true);
    for (const Span& span : traced_step.sender_spans) {
      live.record(span.name, span.start_ns, span.end_ns, span.request);
    }
    for (const Span& span : traced_step.receiver_spans) {
      live.record(span.name, span.start_ns, span.end_ns, span.request);
    }
    live.write(options_.work_dir + "/spans-generator.tsv");
    for (const auto& [name, time] : live.layer_times()) {
      note("generator span " + name + ": " + std::to_string(time.spans) +
           " spans, self " + fmt(static_cast<double>(time.self_ns) / 1e6) + " ms");
    }
    offline_replay(traced_step, cpu_us, result);
  }

  // ---- Correctness.
  const std::string rules = admin_command(serving_.daemon->admin_port(), "rules");
  {
    std::ofstream dump(options_.work_dir + "/rules.txt");
    dump << rules;
  }
  if (options_.trace) {
    const RuleCheck check = check_rules(rules);
    result.add("node.consequents_per_antecedent",
               static_cast<double>(check.consequents) /
                   static_cast<double>(std::max<std::size_t>(check.antecedents, 1)),
               "count");
  }
  const auto stats = admin_stats(serving_.daemon->admin_port());
  const double rule_count = stats.count("node.rules") ? stats.at("node.rules") : 0.0;
  if (flood_) {
    result.check(rule_count == 0.0, "serve-flood publishes no rules (got " + fmt(rule_count, 0) + ")");
  } else {
    result.check(rule_count > 0.0, "serve-mined publishes rules (admin rules: " +
                                       std::to_string(rules.size()) + " bytes)");
  }
  result.check(ttl_violations_ == 0, "zero TTL-1/hops+1 violations (got " +
                                         std::to_string(ttl_violations_) + ")");
  result.check(malformed_ == 0, "zero malformed or misrouted frames (got " +
                                    std::to_string(malformed_) + ")");
  result.check(lost_at_reference == 0,
               "every answer at the reference rate returns to its origin (lost " +
                   std::to_string(lost_at_reference) + ")");
  serving_.generator.reset();
  result.check(serving_.daemon->shutdown(), "daemon exits cleanly on admin shutdown");
  return result;
}

void ServeBench::layer_metrics(const StepResult& step, const StepProbe& probe,
                               Result& result) {
  const double frames = std::max(probe.delta("node.messages_in"), 1.0);
  const double queries = std::max(probe.delta("node.queries_in"), 1.0);
  const double wall = probe.wall_s();
  result.add("net.read_calls_per_frame",
             static_cast<double>(probe.proc_after.syscr - probe.proc_before.syscr) / frames,
             "count");
  result.add("net.write_calls_per_frame",
             static_cast<double>(probe.proc_after.syscw - probe.proc_before.syscw) / frames,
             "count");
  double switches = 0.0;
  double control_busy = 0.0;
  double shard_busy_max = 0.0;
  const pid_t pid = serving_.daemon->pid();
  for (const TaskSample& after : probe.proc_after.tasks) {
    const auto before = std::find_if(
        probe.proc_before.tasks.begin(), probe.proc_before.tasks.end(),
        [&after](const TaskSample& t) { return t.tid == after.tid; });
    if (before == probe.proc_before.tasks.end()) continue;
    switches += static_cast<double>(after.voluntary_switches - before->voluntary_switches);
    const double busy = static_cast<double>(after.cpu_ns - before->cpu_ns) / 1e9 / wall;
    if (after.tid == pid) {
      control_busy = busy;
    } else {
      shard_busy_max = std::max(shard_busy_max, busy);
    }
  }
  result.add("node.wakeups_per_kframe", switches / frames * 1000.0, "count");
  const double utime = static_cast<double>(probe.proc_after.utime - probe.proc_before.utime);
  const double stime = static_cast<double>(probe.proc_after.stime - probe.proc_before.stime);
  result.add("node.sys_share", stime / std::max(utime + stime, 1.0), "fraction");
  result.add("node.frames_per_s", frames / wall, "1/s");
  result.add("node.relays_per_query", probe.delta("node.queries_relayed") / queries, "count");
  const double routed = probe.delta("node.rule_routed");
  result.add("node.rule_routed_share",
             routed / std::max(routed + probe.delta("node.flooded"), 1.0), "fraction");
  result.add("node.drop_share", probe.delta("node.dropped") / frames, "fraction");
  result.add("node.bytes_out_per_frame_in", probe.delta("node.bytes_out") / frames, "bytes");
  result.add("node.process_us_mean", probe.timer_mean_us("node.process"), "us");
  result.add("mining.snapshot_us", probe.timer_mean_us("mining.snapshot"), "us");
  result.add("node.shard_busy_max", shard_busy_max, "fraction");
  result.add("node.control_busy", control_busy, "fraction");
  const double pairs = probe.delta("node.pairs_mined");
  const double merges = probe.delta("node.snapshots");
  result.add("node.merges_per_kpair", merges / std::max(pairs, 1.0) * 1000.0, "count");
  result.add("node.rss_kb_per_kquery",
             (static_cast<double>(probe.proc_after.vm_rss_kb) -
              static_cast<double>(probe.proc_before.vm_rss_kb)) /
                 static_cast<double>(std::max<std::uint64_t>(step.queries_sent, 1)) * 1000.0,
             "kB");
  result.add("gen.lateness_ms_p99", step.lateness_ms_p99, "ms");
  result.add("gen.backlog_queries", static_cast<double>(step.backlog_queries), "count");
  note("daemon step: " + fmt(frames, 0) + " frames, " + fmt(pairs, 0) +
       " pairs mined, " + fmt(merges, 0) + " merges (design value " +
       fmt(1000.0 / static_cast<double>(kRebuildEvery), 1) + " per kpair)");
}

void ServeBench::offline_replay(const StepResult& step, double cpu_us_per_query,
                                Result& result) {
  using gnutella::Message;
  using gnutella::MessageType;
  const std::size_t threads = kThreads;
  const std::size_t links = serving_.generator->connections();
  node::QueryTable table;
  node::PeerDirectory peers;
  for (std::size_t l = 0; l < links; ++l) {
    (void)peers.add(static_cast<node::NeighborId>(l + 1),
                    static_cast<std::uint32_t>(l % threads));
  }
  std::vector<node::ShardWindow> windows(threads);
  node::MiningHub hub(
      mining::MinerConfig{.window = kWindow,
                          .min_support = static_cast<std::uint32_t>(options_.num("min-support"))},
      kRebuildEvery, threads);
  const core::Forwarder forwarder(core::ForwarderConfig{
      .k = kTopK,
      .mode = core::SelectionMode::kTopK});
  util::Rng rng(options_.seed);
  std::vector<gnutella::FrameDecoder> decoders(links);
  std::uint64_t clock = 0;
  std::uint64_t queries = 0;
  std::uint64_t hits = 0;
  std::uint64_t encodes = 0;
  std::uint64_t merges = 0;
  std::vector<double> merge_us;
  SpanRecorder spans(true);
  std::vector<node::NeighborId> targets;

  for (const CapturedFrame& frame : step.captured) {
    const auto id = static_cast<node::NeighborId>(frame.link + 1);
    const std::size_t shard = frame.link % threads;
    std::optional<Message> message;
    std::uint64_t guid = 0;
    const auto root = spans.scope("node.frame");
    {
      const auto span = spans.scope("gnutella.decode");
      decoders[frame.link].feed(frame.bytes);
      message = decoders[frame.link].next();
    }
    if (!message) continue;
    guid = gnutella::fold_guid(message->header.guid);
    ++clock;
    gnutella::Header relay = message->header;
    relay.ttl = static_cast<std::uint8_t>(relay.ttl - 1);
    relay.hops = static_cast<std::uint8_t>(relay.hops + 1);
    if (message->header.type == MessageType::kQuery) {
      ++queries;
      bool fresh = false;
      node::QueryTable::Stripe* stripe = nullptr;
      {
        const auto span = spans.scope("node.guid_table", guid);
        stripe = &table.stripe(guid);
        const std::lock_guard<std::mutex> lock(stripe->mu);
        fresh = stripe->map
                    .try_emplace(guid, node::QueryState{
                                           .from = id,
                                           .key = gnutella::normalize_query(
                                               message->query.search),
                                           .rule_routed = false,
                                           .minable = true})
                    .second;
      }
      if (!fresh) continue;
      {
        const auto span = spans.scope("core.route", guid);
        const std::shared_ptr<const node::RoutingSnapshot> routing = hub.routing();
        const core::ForwardDecision decision = forwarder.decide(routing->rules, id, rng);
        targets.clear();
        if (decision.rule_routed()) {
          for (const auto target : decision.targets) {
            if (target != id) targets.push_back(static_cast<node::NeighborId>(target));
          }
        }
        if (targets.empty()) {
          for (std::size_t l = 0; l < links; ++l) {
            if (l + 1 != id) targets.push_back(static_cast<node::NeighborId>(l + 1));
          }
        } else {
          const std::lock_guard<std::mutex> lock(stripe->mu);
          stripe->map[guid].rule_routed = true;
        }
      }
      Message out = *message;
      out.header = relay;
      const auto span = spans.scope("gnutella.encode", guid);
      const std::vector<std::uint8_t> bytes = gnutella::serialize(out);
      ++encodes;
      (void)bytes;
    } else if (message->header.type == MessageType::kQueryHit) {
      ++hits;
      node::QueryState state;
      bool found = false;
      {
        const auto span = spans.scope("node.guid_table", guid);
        node::QueryTable::Stripe& stripe = table.stripe(guid);
        const std::lock_guard<std::mutex> lock(stripe.mu);
        if (const auto it = stripe.map.find(guid); it != stripe.map.end()) {
          state = it->second;
          found = true;
        }
      }
      if (!found) continue;
      {
        const auto span = spans.scope("node.window_append", guid);
        windows[shard].append(trace::QueryReplyPair{
            .time = static_cast<double>(clock),
            .guid = guid,
            .source_host = state.from,
            .replying_neighbor = id,
            .query = state.key});
      }
      if (hub.note_pair()) {
        const std::uint64_t t0 = now_ns();
        {
          const auto span = spans.scope("node.merge", guid);
          hub.merge(windows, *peers.list());
        }
        merge_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
        ++merges;
      }
      Message out = *message;
      out.header = relay;
      const auto span = spans.scope("gnutella.encode", guid);
      const std::vector<std::uint8_t> bytes = gnutella::serialize(out);
      ++encodes;
      (void)bytes;
    }
  }
  spans.write(options_.work_dir + "/spans-serve-replay.tsv");
  const std::map<std::string, LayerTime> layers = spans.layer_times();
  const auto self_ns = [&layers](const char* name) {
    const auto it = layers.find(name);
    return it == layers.end() ? 0.0 : static_cast<double>(it->second.self_ns);
  };
  const auto count = [&layers](const char* name) {
    const auto it = layers.find(name);
    return it == layers.end() ? 1.0 : static_cast<double>(std::max<std::uint64_t>(it->second.spans, 1));
  };
  const double frames = static_cast<double>(std::max<std::size_t>(step.captured.size(), 1));
  const double q = static_cast<double>(std::max<std::uint64_t>(queries, 1));
  result.add("gnutella.decode_ns_per_frame", self_ns("gnutella.decode") / frames, "ns");
  result.add("gnutella.encode_ns_per_frame",
             self_ns("gnutella.encode") / static_cast<double>(std::max<std::uint64_t>(encodes, 1)), "ns");
  result.add("core.route_ns_per_query", self_ns("core.route") / q, "ns");
  result.add("node.window_append_ns", self_ns("node.window_append") / count("node.window_append"), "ns");
  result.add("node.merge_us_p50", percentile(merge_us, 50.0).value_or(0.0), "us");
  result.add("node.merge_us_p99", percentile(merge_us, 99.0).value_or(0.0), "us");
  double stage_ns = 0.0;
  for (const auto& [name, layer] : layers) stage_ns += static_cast<double>(layer.self_ns);
  const double stage_us = stage_ns / q / 1e3;
  result.add("trace.stage_sum_us_per_query", stage_us, "us");
  result.add("trace.unaccounted_us_per_query", cpu_us_per_query - stage_us, "us");
  note("offline replay: " + std::to_string(step.captured.size()) + " frames (" +
       std::to_string(queries) + " queries, " + std::to_string(hits) + " hits), " +
       std::to_string(merges) + " merges");
  for (const auto& [name, layer] : layers) {
    note("  stage " + name + ": self " + fmt(static_cast<double>(layer.self_ns) / q / 1e3) +
         " us/query over " + std::to_string(layer.spans) + " spans");
  }
  note("stage sum " + fmt(stage_us) + " us/query vs daemon cpu_us_per_query " +
       fmt(cpu_us_per_query) + " -> unaccounted (syscalls, wakeups) " +
       fmt(cpu_us_per_query - stage_us) + " us/query");
}

}  // namespace

Result run_serve(const Options& options, bool flood) {
  ServeBench bench(options, flood);
  return bench.run();
}

}  // namespace perfbench
