// Epoch-locked benchmark of the ALEX loop: federated queries served over
// owl:sameAs links, crowd votes on the answers, verdict batches driving
// Monte-Carlo episodes, every episode republishing the links, and (on the
// `grow` workload) live triple ingest underneath.
//
// Every epoch runs in two phases separated by barriers:
//
//   serve  Two query slices run through ServingEngine::ExecuteText as a
//          closed loop, one per reader thread. Nothing is published while
//          they run, so every query pins the same epoch. The readers cast
//          the votes on the epoch's review queue (SampleFeedbackLinks)
//          into one FeedbackAggregator.
//   learn  One learner thread runs [ingest -> NoteSourceIngest ->]
//          DrainVerdicts -> ApplyLinkFeedback -> EndExternalEpisode ->
//          Publish.
//
// A query text always belongs to the same slice and every vote is a pure
// hash of the seed, the epoch and what is voted on, so the queries, cache
// hits, votes, verdicts, link changes and final F-measure are a function of
// the seed alone, at one reader thread or two. Only time varies between
// runs.
//
// Between the phases, outside the timed region, a sampled share of the
// reader queries is replayed on the pinned snapshot with the result cache
// bypassed; the answer hashes must match.
//
// Usage:
//   loop_bench --workload serve|learn|grow --seed N --seconds S --trace 0|1
//              [--readers 1|2] [--epochs N] [--setups N] [--trace-out PATH]
//
// Prints progress lines, one "WORK {...}" line with the seed-determined
// work counters, and as its last line the result object
// {"correct", "attempted", "failed", "metrics"}: end-to-end metrics with
// --trace 0, per-layer metrics (from a separate traced pass) with --trace 1.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <sys/resource.h>

#include "common/thread_pool.h"
#include "core/alex_engine.h"
#include "datagen/profiles.h"
#include "datagen/world.h"
#include "eval/experiment.h"
#include "eval/metrics.h"
#include "eval/query_workload.h"
#include "federation/federated_engine.h"
#include "feedback/aggregator.h"
#include "feedback/oracle.h"
#include "linking/paris.h"
#include "rdf/dataset_stats.h"
#include "serving/serving_engine.h"
#include "serving/serving_loop.h"
#include "sparql/parser.h"
#include "trace.h"

namespace loopbench {
namespace {

using alex::linking::Link;

// ---- Workloads ------------------------------------------------------------

struct Workload {
  const char* name;
  // Distinct federated queries generated from the world (the population).
  size_t population;
  // Queries issued per serve phase, drawn with Zipf skew over the population
  // (zipf_s = 0 draws uniformly).
  size_t queries_per_epoch;
  double zipf_s;
  // Links drawn per epoch with SampleFeedbackLinks (the crowd review
  // queue), and votes cast on each of them.
  size_t review_links;
  int users_per_link;
  // GrowWorld entity growth per epoch (0 = no ingest).
  double growth_fraction;
};

constexpr Workload kWorkloads[] = {
    {"serve", 4000, 6000, 1.0, 4, 25, 0.0},
    {"learn", 64, 256, 0.0, 60, 40, 0.0},
    {"grow", 3000, 2000, 1.0, 4, 25, 0.005},
};

constexpr int kSlices = 2;         // query slices per serve phase
constexpr int kEngineThreads = 2;  // AlexOptions::num_threads
constexpr int kWarmupEpochs = 2;
constexpr int kMinEpochs = 100;
// Timed epochs per second of --seconds: sizes the run. The epoch count is a
// function of --seconds, never of measured time.
constexpr double kEpochsPerSecond = 6.5;
constexpr double kVoteErrorRate = 0.1;
constexpr uint64_t kGrowthSeed = 7;
constexpr uint64_t kReplayEvery = 32;  // replay ~1 in 32 reader queries
// Traced pass: Pin calls timed back to back once per epoch, in the check
// phase (a single call lasts a few clock ticks).
constexpr int kPinBatch = 64;

// ---- Deterministic hashing -------------------------------------------------

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

double Unit(uint64_t h) { return static_cast<double>(h >> 11) * 0x1.0p-53; }

uint64_t HashText(const std::string& s, uint64_t h = 1469598103934665603ull) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

uint64_t HashLink(const Link& link) {
  return HashText(link.right, Mix(HashText(link.left)));
}

// ---- Statistics -------------------------------------------------------------

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // kB -> MB
}

// ---- Options ----------------------------------------------------------------

struct Options {
  const Workload* workload = nullptr;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int readers = 2;
  int epochs = 0;  // 0 = from --seconds
  int setups = 7;
  std::string trace_out;
};

int TimedEpochs(const Options& options) {
  if (options.epochs > 0) return options.epochs;
  return std::max(kMinEpochs, static_cast<int>(std::lround(
                                  options.seconds * kEpochsPerSecond)));
}

// ---- Per-slice reader state --------------------------------------------------

struct QuerySlot {
  size_t query = 0;  // population index
  uint64_t slot = 0;  // position in the epoch's draw order
};

struct ReplaySample {
  size_t query = 0;
  uint64_t answers_hash = 0;
};

// Everything one slice produces, accumulated over the timed epochs. Slices
// (not threads) own the accumulators, so merging is order-independent of
// how slices map to threads.
struct SliceStats {
  std::vector<double> execute_us;
  int64_t execute_ns = 0, add_vote_ns = 0;
  uint64_t queries = 0, failed = 0, cache_hits = 0, rows = 0, links_used = 0,
           votes = 0, wrong_epoch = 0;
};

struct SliceEpoch {
  std::vector<QuerySlot> queries;
  std::vector<std::pair<Link, bool>> votes;  // cast at the end of the slice
  std::vector<ReplaySample> replay;
};

// ---- One benchmark instance -------------------------------------------------

struct SetupTimes {
  double generate_ms = 0, paris_ms = 0, initialize_ms = 0, total_s = 0;
};

struct EpochTimes {
  double sample_ms = 0, serve_ms = 0, learn_ms = 0;
};

struct RunResult {
  SetupTimes setup;
  std::vector<EpochTimes> epochs;  // timed epochs only
  std::vector<SliceStats> slices;
  uint64_t attempted = 0, failed = 0, replayed = 0, replay_mismatches = 0;
  uint64_t verdicts = 0, links_changed = 0, cache_hits = 0, cache_misses = 0,
           cache_invalidated = 0, plan_hits = 0, plan_misses = 0,
           ingest_new_pairs = 0, blocking_merges = 0, candidates = 0;
  uint64_t digest = 0;
  double f1_final = 0.0;
  double timed_wall_s = 0.0;
  // Traced pass, timed in the check phase: the mean Pin time per epoch,
  // and ParseQuery and uncached FederatedEngine::ExecuteText on each
  // replayed query.
  std::vector<double> pin_ns, parse_us, eval_us;
  // Traced pass: per-epoch span totals by name (ms), and self time by module.
  std::map<std::string, std::vector<double>> span_ms_per_epoch;
  std::map<std::string, int64_t> self_ns;
  std::vector<double> stage_ms;  // StageLink time per timed epoch
  double learn_coverage = 0.0;
};

class Bench {
 public:
  Bench(const Options& options, bool traced)
      : options_(options),
        workload_(*options.workload),
        traced_(traced),
        learner_log_(0),
        slice_epoch_(kSlices),
        slice_logs_() {
    for (int s = 0; s < kSlices; ++s) slice_logs_.emplace_back(s + 1);
    stats_.resize(kSlices);
  }

  // World generation, PARIS, Initialize, workload generation and warm-up
  // epochs. Returns false on any library error.
  bool SetUp(SetupTimes* times) {
    const int64_t start = NowNs();
    alex::datagen::WorldProfile profile = alex::datagen::DbpediaNytimesProfile();
    {
      const int64_t t = NowNs();
      world_ = alex::datagen::Generate(profile);
      times->generate_ms = static_cast<double>(NowNs() - t) / 1e6;
    }
    alex::eval::ExperimentConfig config;
    std::vector<Link> initial;
    {
      const int64_t t = NowNs();
      initial = alex::linking::FilterByScore(
          alex::linking::RunParis(world_.left, world_.right, config.paris),
          config.paris_threshold);
      times->paris_ms = static_cast<double>(NowNs() - t) / 1e6;
    }
    alex::core::AlexOptions alex_options;
    alex_options.episode_size = 1000;
    alex_options.num_partitions = 8;
    alex_options.num_threads = kEngineThreads;
    // The crowd review queue is uncertainty-prioritized, as a deployed
    // review queue would be.
    alex_options.prioritized_sampling = true;
    engine_ = std::make_unique<alex::core::AlexEngine>(&world_.left,
                                                       &world_.right,
                                                       alex_options);
    {
      const int64_t t = NowNs();
      if (!engine_->Initialize(initial).ok()) return false;
      times->initialize_ms = static_cast<double>(NowNs() - t) / 1e6;
    }
    truth_ = alex::feedback::GroundTruth(world_.ground_truth);

    // The world, the query population (in popularity order), the growth
    // schedule and the learner's review queue are fixed; the seed drives the
    // query draws and the users' vote errors. Different seeds then do the
    // same amount of work within a small spread.
    alex::eval::WorkloadOptions workload_options;
    workload_options.num_queries = workload_.population;
    population_ = alex::eval::GenerateWorkload(world_, workload_options);
    if (population_.empty()) return false;
    std::cout << "world " << world_.left.size() << " + " << world_.right.size()
              << " triples, " << initial.size() << " PARIS links, "
              << population_.size() << " distinct queries" << std::endl;
    double total = 0.0;
    zipf_cdf_.resize(population_.size());
    for (size_t k = 0; k < zipf_cdf_.size(); ++k) {
      total += 1.0 / std::pow(static_cast<double>(k + 1), workload_.zipf_s);
      zipf_cdf_[k] = total;
    }
    for (double& c : zipf_cdf_) c /= total;
    draw_rng_.Reseed(Mix(options_.seed ^ 0xd4a3));
    vote_seed_ = Mix(options_.seed ^ 0x5073);
    if (workload_.growth_fraction > 0.0) {
      growth_ = alex::datagen::GrowWorld(
          profile, kGrowthSeed, workload_.growth_fraction,
          kWarmupEpochs + TimedEpochs(options_));
    }

    alex::serving::ServingOptions serving_options;
    serving_options.sources = {&world_.left, &world_.right};
    serving_ = std::make_unique<alex::serving::ServingEngine>(
        serving_options, engine_->CandidateLinks());
    current_ = serving_->Pin();
    // StageLink runs once per changed link (thousands per epoch), too
    // often for a span each: the traced pass sums its time per epoch.
    engine_->SetLinkChangeObserver([this](const Link& link, bool added) {
      if (!traced_) {
        serving_->StageLink(link, added);
        return;
      }
      const int64_t t = NowNs();
      serving_->StageLink(link, added);
      stage_ns_ += NowNs() - t;
    });
    readers_ = std::make_unique<alex::ThreadPool>(options_.readers);

    // Warm-up: the lazy first-touch costs — the left blocking index built
    // by the first IngestTriples, the first pass filling the plan and
    // result caches, the first publishes — land here, in set-up.
    if (workload_.growth_fraction > 0.0 && !engine_->IngestTriples().ok()) {
      return false;
    }
    for (int e = 0; e < kWarmupEpochs; ++e) {
      if (!RunEpoch()) return false;
    }
    times->total_s = static_cast<double>(NowNs() - start) / 1e9;
    return true;
  }

  // The timed epochs. Returns false on any library error.
  bool RunTimed(RunResult* out) {
    TakeCacheStats();  // discard warm-up traffic
    result_ = out;
    for (int e = 0; e < TimedEpochs(options_); ++e) {
      if (!RunEpoch()) return false;
    }
    engine_->SetLinkChangeObserver(nullptr);
    out->slices = std::move(stats_);
    out->candidates = engine_->CandidateCount();
    std::vector<Link> final_links = engine_->CandidateLinks();
    out->f1_final = alex::eval::Evaluate(final_links, truth_).f_measure;
    uint64_t links_hash = 0;
    for (const Link& link : final_links) links_hash = Mix(links_hash ^ HashLink(link));
    out->digest = Mix(digest_ ^ links_hash);
    for (const EpochTimes& t : out->epochs) {
      out->timed_wall_s += (t.sample_ms + t.serve_ms + t.learn_ms) / 1e3;
    }
    if (traced_) CollectSpans(out);
    return true;
  }

  void WriteTrace(const std::string& path) const {
    std::ofstream file(path);
    file << "thread\tid\tparent\tepoch\tname\tstart_ns\tend_ns\n";
    learner_log_.Write(file);
    for (const SpanLog& log : slice_logs_) log.Write(file);
  }

 private:
  SpanLog* learner() { return traced_ ? &learner_log_ : nullptr; }

  bool timed() const { return result_ != nullptr; }

  void TakeCacheStats() {
    if (current_->cache() != nullptr) {
      alex::fed::FederatedQueryCache::Stats s = current_->cache()->TakeStats();
      if (timed()) {
        result_->cache_hits += s.hits;
        result_->cache_misses += s.misses;
        result_->cache_invalidated += s.invalidated;
      }
    }
    if (current_->plan_cache() != nullptr) {
      alex::sparql::PlanCache::Stats s = current_->plan_cache()->TakeStats();
      if (timed()) {
        result_->plan_hits += s.parse_hits + s.plan_hits;
        result_->plan_misses += s.parse_misses + s.plan_misses;
      }
    }
  }

  // Draws the epoch's queries and splits them into slices: a query text
  // always lands in the same slice, so its cache hit or miss does not
  // depend on how the readers interleave.
  void DrawQueries() {
    for (SliceEpoch& slice : slice_epoch_) {
      slice.queries.clear();
      slice.votes.clear();
      slice.replay.clear();
    }
    for (uint64_t i = 0; i < workload_.queries_per_epoch; ++i) {
      const double u = draw_rng_.NextDouble();
      const size_t rank = static_cast<size_t>(
          std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u) -
          zipf_cdf_.begin());
      const size_t query = std::min(rank, population_.size() - 1);
      slice_epoch_[query % kSlices].queries.push_back({query, i});
    }
  }

  bool Vote(const Link& link, uint64_t key) const {
    bool vote = truth_.Contains(link);
    if (Unit(Mix(vote_seed_ ^ key ^ HashLink(link))) < kVoteErrorRate) {
      vote = !vote;
    }
    return vote;
  }

  // One slice of the serve phase, on a reader thread.
  void ServeSlice(int s) {
    SliceEpoch& slice = slice_epoch_[static_cast<size_t>(s)];
    SliceStats& stats = stats_[static_cast<size_t>(s)];
    SpanLog* log = traced_ ? &slice_logs_[static_cast<size_t>(s)] : nullptr;
    ScopedSpan slice_span(log, "loop.slice", epoch_);
    const bool timed_epoch = timed();
    const uint64_t epoch_key = Mix(static_cast<uint64_t>(epoch_) << 32);
    for (const QuerySlot& q : slice.queries) {
      const std::string& text = population_[q.query].text;
      std::shared_ptr<const alex::serving::EpochSnapshot> pinned;
      const int64_t t = NowNs();
      alex::Result<alex::fed::FederatedResult> result =
          serving_->ExecuteText(text, {}, &pinned);
      const int64_t execute_ns = NowNs() - t;
      const bool ok = result.ok() && result.value().complete;
      if (timed_epoch) {
        stats.execute_us.push_back(static_cast<double>(execute_ns) / 1e3);
        stats.execute_ns += execute_ns;
        ++stats.queries;
        if (!ok) ++stats.failed;
        if (pinned != current_) ++stats.wrong_epoch;
      }
      if (!ok) continue;
      const std::vector<alex::fed::FederatedAnswer>& answers =
          result.value().answers;
      if (timed_epoch) {
        if (result.value().from_cache) ++stats.cache_hits;
        stats.rows += answers.size();
      }
      if (Mix(epoch_key ^ q.slot) % kReplayEvery == 0) {
        slice.replay.push_back({q.query, alex::serving::HashAnswers(answers)});
      }
      if (timed_epoch) {
        for (const alex::fed::FederatedAnswer& answer : answers) {
          stats.links_used += answer.links_used.size();
        }
      }
    }
    // The crowd review queue: this slice's share of the sampled links.
    for (size_t j = static_cast<size_t>(s); j < review_queue_.size();
         j += kSlices) {
      for (int u = 0; u < workload_.users_per_link; ++u) {
        const uint64_t key = Mix(epoch_key ^ Mix(j << 16 | static_cast<uint64_t>(u)));
        slice.votes.emplace_back(review_queue_[j], Vote(review_queue_[j], key));
      }
    }
    const int64_t t = NowNs();
    for (const auto& [link, approve] : slice.votes) {
      aggregator_.AddVote(link, approve);
    }
    const int64_t vote_ns = NowNs() - t;
    if (timed_epoch) {
      stats.add_vote_ns += vote_ns;
      stats.votes += slice.votes.size();
    }
  }

  // Replays the sampled reader queries on the pinned snapshot, result
  // cache bypassed, and (traced pass) times the Pin, ParseQuery and uncached
  // evaluation probes. Untimed; keeps no snapshot beyond the pinned one.
  void Check(const alex::fed::FederatedEngine& bypass) {
    const bool probe = traced_ && timed();
    if (probe) {
      const int64_t t = NowNs();
      for (int i = 0; i < kPinBatch; ++i) {
        std::shared_ptr<const alex::serving::EpochSnapshot> pin = serving_->Pin();
      }
      result_->pin_ns.push_back(static_cast<double>(NowNs() - t) / kPinBatch);
    }
    for (const SliceEpoch& slice : slice_epoch_) {
      for (const ReplaySample& sample : slice.replay) {
        const std::string& text = population_[sample.query].text;
        bool parsed = true;
        int64_t t = NowNs();
        if (probe) {
          parsed = alex::sparql::ParseQuery(text).ok();
          result_->parse_us.push_back(static_cast<double>(NowNs() - t) / 1e3);
          t = NowNs();
        }
        alex::Result<alex::fed::FederatedResult> result = bypass.ExecuteText(text);
        if (probe) {
          result_->eval_us.push_back(static_cast<double>(NowNs() - t) / 1e3);
        }
        const bool ok = parsed && result.ok() && result.value().complete;
        if (!timed()) {
          if (!ok || alex::serving::HashAnswers(result.value().answers) !=
                         sample.answers_hash) {
            warmup_failures_ = true;
          }
          continue;
        }
        ++result_->replayed;
        ++result_->attempted;
        if (!ok) {
          ++result_->failed;
        } else if (alex::serving::HashAnswers(result.value().answers) !=
                   sample.answers_hash) {
          ++result_->replay_mismatches;
        }
      }
    }
  }

  bool RunEpoch() {
    ++epoch_;
    const bool timed_epoch = timed();
    EpochTimes times;
    ScopedSpan epoch_span(learner(), "loop.epoch", epoch_);

    // Queue: the epoch's review sample (learn) and query draw.
    DrawQueries();
    review_queue_.clear();
    {
      ScopedSpan span(learner(), "loop.queue", epoch_);
      const int64_t t = NowNs();
      engine_->BeginExternalEpisode();
      {
        ScopedSpan sample(learner(), "core.sample", epoch_);
        engine_->SampleFeedbackLinks(workload_.review_links, &review_queue_);
      }
      times.sample_ms = static_cast<double>(NowNs() - t) / 1e6;
    }

    // Serve phase.
    {
      ScopedSpan span(learner(), "loop.serve", epoch_);
      const int64_t t = NowNs();
      for (int s = 0; s < kSlices; ++s) {
        readers_->Schedule([this, s] { ServeSlice(s); });
      }
      readers_->Wait();
      times.serve_ms = static_cast<double>(NowNs() - t) / 1e6;
    }
    if (timed_epoch) {
      for (const SliceEpoch& slice : slice_epoch_) {
        result_->attempted += slice.queries.size();
      }
    }
    TakeCacheStats();

    // Check phase: untimed, before anything is published or ingested.
    {
      ScopedSpan span(learner(), "loop.check", epoch_);
      Check(alex::fed::FederatedEngine({&world_.left, &world_.right},
                                       &current_->links()));
    }

    // Learn phase.
    size_t verdict_count = 0, approvals = 0, changed = 0;
    std::vector<Link> new_truth;
    {
      ScopedSpan span(learner(), "loop.learn", epoch_);
      const int64_t t = NowNs();
      if (workload_.growth_fraction > 0.0) {
        const alex::datagen::GrowthEpoch& growth =
            growth_.epochs[next_growth_++];
        {
          ScopedSpan s(learner(), "rdf.append", epoch_);
          alex::datagen::ApplyGrowthEpoch(growth, &world_.left, &world_.right);
        }
        alex::core::AlexEngine::IngestStats ingest;
        {
          ScopedSpan s(learner(), "core.ingest", epoch_);
          if (!engine_->IngestTriples(&ingest).ok()) return false;
        }
        std::vector<alex::rdf::DatasetStats> fresh;
        {
          ScopedSpan s(learner(), "rdf.stats", epoch_);
          fresh.push_back(alex::rdf::ComputeStats(world_.left));
          fresh.push_back(alex::rdf::ComputeStats(world_.right));
        }
        {
          ScopedSpan s(learner(), "serving.note_ingest", epoch_);
          serving_->NoteSourceIngest(fresh);
        }
        new_truth = growth.new_ground_truth;
        if (timed_epoch) {
          result_->ingest_new_pairs += ingest.new_pairs;
          result_->blocking_merges = ingest.blocking_merges;
        }
      }
      std::vector<alex::feedback::LinkVerdict> verdicts;
      {
        ScopedSpan s(learner(), "feedback.drain", epoch_);
        verdicts = aggregator_.DrainVerdicts(epoch_);
      }
      for (const alex::feedback::LinkVerdict& verdict : verdicts) {
        ScopedSpan s(learner(), "core.apply_feedback", epoch_);
        engine_->ApplyLinkFeedback(verdict.link, verdict.approve);
      }
      {
        ScopedSpan s(learner(), "core.end_episode", epoch_);
        changed = engine_->EndExternalEpisode();
      }
      if (timed_epoch && traced_) {
        result_->stage_ms.push_back(static_cast<double>(stage_ns_) / 1e6);
      }
      stage_ns_ = 0;
      {
        ScopedSpan s(learner(), "serving.publish", epoch_);
        current_ = serving_->Publish();
      }
      times.learn_ms = static_cast<double>(NowNs() - t) / 1e6;
      verdict_count = verdicts.size();
      for (const auto& v : verdicts) approvals += v.approve ? 1 : 0;
    }
    for (Link& link : new_truth) truth_.Add(std::move(link));

    digest_ = Mix(digest_ ^ Mix(verdict_count << 40 ^ approvals << 20 ^ changed) ^
                  engine_->CandidateCount());
    if (timed_epoch) {
      result_->epochs.push_back(times);
      result_->verdicts += verdict_count;
      result_->links_changed += changed;
    }
    return !warmup_failures_;
  }

  // Folds the traced pass's spans into per-epoch totals and module self
  // times (timed epochs only). Learner-side self time comes from the span
  // tree. On the reader side ExecuteText counts for serving (it runs the
  // plan cache, parsing and federated evaluation inside itself), AddVote
  // for feedback, and the rest of each slice span for the loop itself. The
  // serve-phase span (whose work runs on the readers) and the untimed check
  // with its probes are left out.
  void CollectSpans(RunResult* out) const {
    const uint32_t first_timed = static_cast<uint32_t>(kWarmupEpochs + 1);
    const std::vector<Span>& spans = learner_log_.spans();
    const std::vector<int64_t> self = learner_log_.SelfTimes();
    std::map<std::string, std::map<uint32_t, double>> per_epoch;
    int64_t learn_ns = 0, learn_children_ns = 0;
    auto named = [](const char* a, const char* b) {
      return std::string(a) == b;
    };
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& span = spans[i];
      if (span.epoch < first_timed) continue;
      const int64_t dur = span.end_ns - span.start_ns;
      per_epoch[span.name][span.epoch] += static_cast<double>(dur) / 1e6;
      const char* parent =
          span.parent >= 0 ? spans[static_cast<size_t>(span.parent)].name : "";
      if (named(span.name, "loop.learn")) learn_ns += dur;
      if (named(parent, "loop.learn")) learn_children_ns += dur;
      if (named(span.name, "loop.serve") || named(span.name, "loop.check") ||
          named(parent, "loop.check")) {
        continue;
      }
      out->self_ns[ModuleOf(span.name)] += self[i];
    }
    for (const SpanLog& log : slice_logs_) {
      for (const Span& span : log.spans()) {
        if (span.epoch >= first_timed) {
          out->self_ns["loop"] += span.end_ns - span.start_ns;
        }
      }
    }
    for (const SliceStats& s : out->slices) {
      out->self_ns["serving"] += s.execute_ns;
      out->self_ns["feedback"] += s.add_vote_ns;
      out->self_ns["loop"] -= s.execute_ns + s.add_vote_ns;
    }
    // StageLink time sits inside core.end_episode.
    double stage_ms = 0.0;
    for (double ms : out->stage_ms) stage_ms += ms;
    out->self_ns["core"] -= static_cast<int64_t>(stage_ms * 1e6);
    out->self_ns["serving"] += static_cast<int64_t>(stage_ms * 1e6);
    const int timed_epochs = TimedEpochs(options_);
    for (const auto& [name, epochs] : per_epoch) {
      std::vector<double> values;
      for (int e = 0; e < timed_epochs; ++e) {
        auto it = epochs.find(first_timed + static_cast<uint32_t>(e));
        values.push_back(it == epochs.end() ? 0.0 : it->second);
      }
      out->span_ms_per_epoch[name] = std::move(values);
    }
    out->learn_coverage =
        Ratio(static_cast<double>(learn_children_ns), static_cast<double>(learn_ns));
  }

  const Options& options_;
  const Workload& workload_;
  const bool traced_;

  alex::datagen::GeneratedWorld world_;
  alex::feedback::GroundTruth truth_;
  std::unique_ptr<alex::core::AlexEngine> engine_;
  std::unique_ptr<alex::serving::ServingEngine> serving_;
  std::shared_ptr<const alex::serving::EpochSnapshot> current_;
  alex::feedback::FeedbackAggregator aggregator_;
  std::vector<alex::eval::WorkloadQuery> population_;
  std::vector<double> zipf_cdf_;
  alex::Rng draw_rng_;
  uint64_t vote_seed_ = 0;
  alex::datagen::GrowthSchedule growth_;
  size_t next_growth_ = 0;

  uint32_t epoch_ = 0;
  std::vector<Link> review_queue_;
  uint64_t digest_ = 0;
  bool warmup_failures_ = false;
  int64_t stage_ns_ = 0;  // StageLink time this epoch (traced pass)
  RunResult* result_ = nullptr;

  SpanLog learner_log_;
  std::vector<SliceEpoch> slice_epoch_;
  std::vector<SpanLog> slice_logs_;
  std::vector<SliceStats> stats_;
  std::unique_ptr<alex::ThreadPool> readers_;  // last: joined first
};

// Sets up, runs the timed epochs, and returns the result; nullopt on a
// library error.
std::optional<RunResult> RunOnce(const Options& options, bool traced) {
  Bench bench(options, traced);
  RunResult result;
  if (!bench.SetUp(&result.setup) || !bench.RunTimed(&result)) {
    return std::nullopt;
  }
  if (traced && !options.trace_out.empty()) bench.WriteTrace(options.trace_out);
  return result;
}

// ---- Reporting -------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string FormatResult(bool correct, uint64_t attempted, uint64_t failed,
                         const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out.precision(17);
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out << (i ? ", " : "") << '"' << metrics[i].name << "\": {\"value\": "
        << metrics[i].value << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  out << "}}";
  return out.str();
}

std::vector<double> Concat(const std::vector<SliceStats>& slices,
                           std::vector<double> SliceStats::*field) {
  std::vector<double> all;
  for (const SliceStats& s : slices) {
    all.insert(all.end(), (s.*field).begin(), (s.*field).end());
  }
  return all;
}

uint64_t Sum(const std::vector<SliceStats>& slices, uint64_t SliceStats::*field) {
  uint64_t total = 0;
  for (const SliceStats& s : slices) total += s.*field;
  return total;
}

std::vector<double> EpochColumn(const RunResult& r, double EpochTimes::*field) {
  std::vector<double> values;
  for (const EpochTimes& t : r.epochs) values.push_back(t.*field);
  return values;
}

double SpanMedian(const RunResult& r, const std::string& name, double scale) {
  auto it = r.span_ms_per_epoch.find(name);
  return it == r.span_ms_per_epoch.end() ? 0.0 : Median(it->second) * scale;
}

double EpochsPerSecond(const RunResult& r) {
  return Ratio(static_cast<double>(r.epochs.size()), r.timed_wall_s);
}

std::vector<Metric> EndToEnd(const RunResult& r, double setup_s) {
  std::vector<double> execute = Concat(r.slices, &SliceStats::execute_us);
  double serve_s = 0.0;
  for (const EpochTimes& t : r.epochs) serve_s += t.serve_ms / 1e3;
  std::vector<double> epoch_ms = EpochColumn(r, &EpochTimes::learn_ms);
  return {
      {"setup_s", setup_s, "s"},
      {"query_p50_us", Quantile(execute, 0.5), "us"},
      {"query_p99_us", Quantile(execute, 0.99), "us"},
      {"query_samples", static_cast<double>(execute.size()), "count"},
      {"query_qps", Ratio(static_cast<double>(execute.size()), serve_s), "1/s"},
      {"epoch_p50_ms", Quantile(epoch_ms, 0.5), "ms"},
      {"epoch_p90_ms", Quantile(epoch_ms, 0.9), "ms"},
      {"epochs_per_s", EpochsPerSecond(r), "1/s"},
      {"f1_final", r.f1_final, "ratio"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
}

std::vector<Metric> PerLayer(const RunResult& r, const RunResult& untraced) {
  const std::vector<SliceStats>& s = r.slices;
  const double epochs = static_cast<double>(r.epochs.size());
  double serve_ms = 0.0, learn_ms = 0.0;
  for (const EpochTimes& t : r.epochs) {
    serve_ms += t.serve_ms;
    learn_ms += t.learn_ms;
  }
  const double wall_ms = r.timed_wall_s * 1e3;
  const double rows = static_cast<double>(Sum(s, &SliceStats::rows));
  const double queries = static_cast<double>(Sum(s, &SliceStats::queries));
  const double votes = static_cast<double>(Sum(s, &SliceStats::votes));
  int64_t vote_ns = 0;
  for (const SliceStats& slice : s) vote_ns += slice.add_vote_ns;
  std::vector<double> execute = Concat(s, &SliceStats::execute_us);
  auto self_ms = [&](const char* module) {
    auto it = r.self_ns.find(module);
    return it == r.self_ns.end() ? 0.0 : static_cast<double>(it->second) / 1e6;
  };
  const double end_episode = SpanMedian(r, "core.end_episode", 1.0);
  return {
      {"datagen.generate_ms", r.setup.generate_ms, "ms"},
      {"linking.paris_ms", r.setup.paris_ms, "ms"},
      {"core.initialize_ms", r.setup.initialize_ms, "ms"},
      {"sparql.parse_us", Median(r.parse_us), "us"},
      {"sparql.plan_cache_hit_rate",
       Ratio(static_cast<double>(r.plan_hits),
             static_cast<double>(r.plan_hits + r.plan_misses)),
       "ratio"},
      {"federation.eval_us_p50", Quantile(r.eval_us, 0.5), "us"},
      {"federation.eval_us_p99", Quantile(r.eval_us, 0.99), "us"},
      {"federation.rows_per_query", Ratio(rows, queries), "count"},
      {"federation.links_per_answer",
       Ratio(static_cast<double>(Sum(s, &SliceStats::links_used)), rows),
       "count"},
      {"federation.cache_hit_rate",
       Ratio(static_cast<double>(r.cache_hits),
             static_cast<double>(r.cache_hits + r.cache_misses)),
       "ratio"},
      {"federation.cache_invalidated", static_cast<double>(r.cache_invalidated),
       "count"},
      {"serving.pin_ns", Median(r.pin_ns), "ns"},
      {"serving.execute_us_p50", Quantile(execute, 0.5), "us"},
      {"serving.execute_us_p99", Quantile(execute, 0.99), "us"},
      {"serving.stage_us", Median(r.stage_ms) * 1e3, "us"},
      {"serving.publish_ms", SpanMedian(r, "serving.publish", 1.0), "ms"},
      {"serving.note_ingest_ms", SpanMedian(r, "serving.note_ingest", 1.0), "ms"},
      {"feedback.add_vote_ns", Ratio(static_cast<double>(vote_ns), votes), "ns"},
      {"feedback.votes", votes, "count"},
      {"feedback.drain_ms", SpanMedian(r, "feedback.drain", 1.0), "ms"},
      {"feedback.verdicts", static_cast<double>(r.verdicts), "count"},
      {"core.sample_ms", SpanMedian(r, "core.sample", 1.0), "ms"},
      {"core.apply_feedback_ms", SpanMedian(r, "core.apply_feedback", 1.0), "ms"},
      {"core.end_episode_ms", end_episode, "ms"},
      {"core.links_changed", static_cast<double>(r.links_changed), "count"},
      {"core.candidates", static_cast<double>(r.candidates), "count"},
      {"core.ingest_ms", SpanMedian(r, "core.ingest", 1.0), "ms"},
      {"core.ingest_new_pairs", static_cast<double>(r.ingest_new_pairs), "count"},
      {"core.blocking_merges", static_cast<double>(r.blocking_merges), "count"},
      {"rdf.append_ms", SpanMedian(r, "rdf.append", 1.0), "ms"},
      {"rdf.stats_ms", SpanMedian(r, "rdf.stats", 1.0), "ms"},
      {"self.loop_ms", self_ms("loop") / epochs, "ms"},
      {"self.serving_ms", self_ms("serving") / epochs, "ms"},
      {"self.feedback_ms", self_ms("feedback") / epochs, "ms"},
      {"self.core_ms", self_ms("core") / epochs, "ms"},
      {"self.rdf_ms", self_ms("rdf") / epochs, "ms"},
      {"phase.serve_share", Ratio(serve_ms, wall_ms), "ratio"},
      {"phase.learn_share", Ratio(learn_ms, wall_ms), "ratio"},
      {"trace.learn_coverage", r.learn_coverage, "ratio"},
      {"trace.epochs_per_s", EpochsPerSecond(r), "1/s"},
      {"trace.overhead_pct",
       100.0 * (Ratio(EpochsPerSecond(untraced), EpochsPerSecond(r)) - 1.0),
       "%"},
  };
}

std::string WorkLine(const RunResult& r) {
  std::ostringstream out;
  out.precision(17);
  out << "WORK {\"epochs\": " << r.epochs.size()
      << ", \"queries\": " << Sum(r.slices, &SliceStats::queries)
      << ", \"cache_hits\": " << Sum(r.slices, &SliceStats::cache_hits)
      << ", \"rows\": " << Sum(r.slices, &SliceStats::rows)
      << ", \"votes\": " << Sum(r.slices, &SliceStats::votes)
      << ", \"verdicts\": " << r.verdicts
      << ", \"links_changed\": " << r.links_changed
      << ", \"candidates\": " << r.candidates
      << ", \"replayed\": " << r.replayed << ", \"digest\": \"" << std::hex
      << r.digest << std::dec << "\", \"f1_final\": " << r.f1_final << "}";
  return out.str();
}

bool ParseArgs(int argc, char** argv, Options* options) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        for (const Workload& w : kWorkloads) {
          if (value == w.name) options->workload = &w;
        }
      } else if (flag == "--seed") {
        options->seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options->seconds = std::stod(value);
      } else if (flag == "--trace") {
        options->trace = value == "1";
      } else if (flag == "--readers") {
        options->readers = std::stoi(value);
      } else if (flag == "--epochs") {
        options->epochs = std::stoi(value);
      } else if (flag == "--setups") {
        options->setups = std::stoi(value);
      } else if (flag == "--trace-out") {
        options->trace_out = value;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return options->workload != nullptr && options->seconds > 0 &&
         (options->readers == 1 || options->readers == 2) &&
         options->setups >= 1 && argc % 2 == 1;
}

}  // namespace
}  // namespace loopbench

int main(int argc, char** argv) {
  using namespace loopbench;
  Options options;
  if (!ParseArgs(argc, argv, &options)) {
    std::cerr << "usage: loop_bench --workload serve|learn|grow --seed N "
                 "--seconds S --trace 0|1 [--readers 1|2] [--epochs N] "
                 "[--setups N] [--trace-out PATH]\n";
    return 2;
  }
  std::cout << "loop_bench workload=" << options.workload->name
            << " seed=" << options.seed << " readers=" << options.readers
            << " engine_threads=" << kEngineThreads
            << " timed_epochs=" << TimedEpochs(options) << std::endl;

  // The untraced pass: end-to-end metrics. Set-up runs `setups` times and
  // setup_s is their median. Set-up time drifts with the host within
  // seconds, so the discarded instances are split before and after the
  // measured one and the samples span the whole run. The traced invocation
  // reports no setup_s, so it sets up once per pass.
  const int setups = options.trace ? 1 : options.setups;
  std::vector<double> setup_s;
  auto discarded_setup = [&] {
    Bench bench(options, /*traced=*/false);
    SetupTimes times;
    if (!bench.SetUp(&times)) return false;
    setup_s.push_back(times.total_s);
    return true;
  };
  for (int i = 0; i < (setups - 1) / 2; ++i) {
    if (!discarded_setup()) return 1;
  }
  std::optional<RunResult> run = RunOnce(options, /*traced=*/false);
  if (!run) return 1;
  setup_s.push_back(run->setup.total_s);
  for (int i = (setups - 1) / 2; i < setups - 1; ++i) {
    if (!discarded_setup()) return 1;
  }
  const RunResult& r = *run;

  std::optional<RunResult> traced;
  if (options.trace) {
    traced = RunOnce(options, /*traced=*/true);
    if (!traced) return 1;
  }

  uint64_t attempted = r.attempted, failed = r.failed;
  failed += Sum(r.slices, &SliceStats::failed);
  uint64_t wrong_epoch = Sum(r.slices, &SliceStats::wrong_epoch);
  bool correct = r.replay_mismatches == 0 && wrong_epoch == 0 &&
                 r.replayed > 0 && r.f1_final > 0.0;
  if (traced) {
    // The traced pass does the same work: its counters must match.
    correct = correct && WorkLine(*traced) == WorkLine(r) &&
              traced->replay_mismatches == 0;
    attempted += traced->attempted;
    failed += traced->failed + Sum(traced->slices, &SliceStats::failed);
  }
  std::cout << "replayed=" << r.replayed
            << " replay_mismatches=" << r.replay_mismatches
            << " wrong_epoch=" << wrong_epoch << "\n";
  std::cout << WorkLine(r) << "\n";
  std::vector<Metric> metrics =
      traced ? PerLayer(*traced, r) : EndToEnd(r, Median(setup_s));
  std::cout << FormatResult(correct, attempted, failed, metrics) << std::endl;
  return 0;
}
