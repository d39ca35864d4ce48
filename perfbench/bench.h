// Copyright 2026 The ccr Authors.
//
// Shared declarations of the repository benchmark (see README.md): the
// clock, per-round results, the span recorder of the traced pass, the
// timing decorators over ByteSink and ObjectStore, and the workloads.
//
// The benchmark drives the engine only through its public APIs and never
// edits it: every per-layer time is measured around a call into a layer,
// and every counter is a delta of that layer's public *Stats accessor.

#ifndef CCR_PERFBENCH_BENCH_H_
#define CCR_PERFBENCH_BENCH_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "store/object_store.h"
#include "txn/journal_io.h"

namespace ccr::perfbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Nearest-rank percentile (p in [0, 100]) of `v`, reordering it. 0 when
// empty.
double Percentile(std::vector<double>* v, double p);

// Named metrics of one round, in insertion order. Set overwrites.
class MetricSet {
 public:
  void Set(std::string_view name, double value);
  double Get(std::string_view name) const;  // 0 when unset
  const std::vector<std::pair<std::string, double>>& items() const {
    return items_;
  }

 private:
  std::vector<std::pair<std::string, double>> items_;
};

// What one round of a workload produced. A round is one fresh system: set
// up, a fixed number of operations measured, audited, torn down.
struct RoundResult {
  bool correct = true;
  std::string error;      // first audit violation
  uint64_t attempted = 0;  // submissions / RunTransaction calls
  uint64_t failed = 0;     // error completions + sheds / non-OK results
  double timed_s = 0;      // wall time of the measured phase
  // End-to-end values of the round (the run reports their medians).
  MetricSet e2e;
  // Per-layer values of the round (reported from traced rounds only).
  MetricSet layer;

  void Fail(const std::string& what) {
    if (correct) error = what;
    correct = false;
  }
};

// Inputs of one round. Every generated input derives from `seed`.
struct RoundConfig {
  uint64_t seed = 0;
  bool traced = false;
};

// The three workloads. Each returns after tearing its system down.
RoundResult RunServePoint(const RoundConfig& config);
RoundResult RunBankHot(const RoundConfig& config);
RoundResult RunStoreChurn(const RoundConfig& config);

// ---------------------------------------------------------------------------
// Span recorder for the traced pass. Spans live in per-thread buffers and
// are analysed (and written out) after the round's threads have stopped.
// ---------------------------------------------------------------------------
namespace trace {

enum Kind : uint8_t {
  kRequest,          // SubmitAsync -> completion of one submission
  kSubmit,           // the SubmitAsync call itself
  kTxnRun,           // TxnManager::RunTransaction
  kTxnBody,          // one attempt of the transaction body
  kTxnExecute,       // TxnManager::Execute inside a transaction body
  kSinkAppend,       // ByteSink::Append
  kSinkSync,         // ByteSink::Sync
  kStoreGet,         // ObjectStore::Get
  kStoreApply,       // ObjectStore::ApplyBatch
  kStoreScan,        // ObjectStore::Scan
  kCheckpointWrite,  // Checkpointer::Write
  kRestart,          // TxnManager::RestartFromDir
  kKindCount,
};

const char* KindName(Kind kind);

// One request or transaction in this many is traced; spans of layers that
// serve many requests at once (sink, store, checkpoint, restart) are
// always recorded while tracing is on.
inline constexpr uint32_t kSampleEvery = 8;

void SetEnabled(bool on);
bool Enabled();
inline bool Sampled(uint32_t id) {
  return Enabled() && id % kSampleEvery == 0;
}

// Records a finished span on the calling thread. Its parent is the
// innermost Scope open on this thread, if any.
void Record(Kind kind, uint64_t start_ns, uint64_t end_ns, uint32_t id);

// A span around a synchronous call on the calling thread; spans recorded
// while it is open become its children. No-op unless `on`.
class Scope {
 public:
  Scope(Kind kind, uint32_t id, bool on = Enabled());
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  void* buf_ = nullptr;
  size_t index_ = 0;
};

// Per-kind durations and self times (duration minus the part of it that
// child spans cover), in nanoseconds. A span's children are the spans
// opened inside it on the same thread and, for a request span, the spans
// of the same id on any thread.
struct KindTimes {
  std::vector<double> dur_ns;
  std::vector<double> self_ns;
};
struct Analysis {
  KindTimes kinds[kKindCount];
  size_t spans = 0;
};

// Analyses every span recorded since the last call, appends them to
// `out_path` (tab-separated; skipped when empty) and clears the buffers.
// Call only while no other thread records.
Analysis Collect(const std::string& out_path, int round);

}  // namespace trace

// ---------------------------------------------------------------------------
// Timing decorators. Both forward every call; while tracing is on they
// record a span around it. Counters are kept in every round.
// ---------------------------------------------------------------------------

class TimedSink final : public ByteSink {
 public:
  explicit TimedSink(ByteSink* inner) : inner_(inner) {}

  Status Append(std::string_view bytes) override;
  Status Sync() override;

  uint64_t bytes() const { return bytes_.load(std::memory_order_relaxed); }

 private:
  ByteSink* const inner_;
  std::atomic<uint64_t> bytes_{0};
};

class TimedStore final : public ObjectStore {
 public:
  explicit TimedStore(ObjectStore* inner) : inner_(inner) {}

  Status ApplyBatch(const StoreWriteBatch& batch,
                    Durability durability) override;
  StatusOr<std::string> Get(const std::string& key) override;
  Status Scan(const std::function<Status(const std::string&,
                                         const std::string&)>& fn) override;
  ObjectStoreStats stats() const override { return inner_->stats(); }

 private:
  ObjectStore* const inner_;
};

}  // namespace ccr::perfbench

#endif  // CCR_PERFBENCH_BENCH_H_
