// Copyright 2026 The ccr Authors.
//
// The benchmark's three workloads. Each round builds a fresh system, runs a
// fixed number of closed-loop operations generated from the round's seed,
// audits the outcome, and tears the system down, so every round of a
// workload does the same work and holds the same data.
//
//   serve_point  the serving path end to end: ServeFrontend boundary
//                batching, group commit, a FileSink journal. No lock ever
//                contends and there is no store.
//   bank_hot     contention without durability: nproc threads calling
//                RunTransaction on BankAccounts under DU+NFC with a hot set.
//   store_churn  a counter population 8x the in-memory cache behind a
//                LogStructuredStore, periodic store-backed checkpoints and
//                journal truncation, then a timed restart.

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <sys/stat.h>
#include <unistd.h>

#include "adt/bank_account.h"
#include "adt/counter.h"
#include "bench.h"
#include "common/random.h"
#include "common/temp_path.h"
#include "core/conflict_relation.h"
#include "serve/frontend.h"
#include "store/log_store.h"
#include "txn/checkpoint.h"
#include "txn/du_recovery.h"
#include "txn/group_commit.h"
#include "txn/journal.h"
#include "txn/txn_manager.h"
#include "txn/uip_recovery.h"

namespace ccr::perfbench {
namespace {

// Closed-loop client population of serve_point and store_churn: 32 logical
// clients, each keeping 8 submissions outstanding.
constexpr size_t kClients = 32;
constexpr size_t kWindow = 8;

constexpr size_t kServeKeys = 4096;
constexpr size_t kServeRequestsPerClient = 3000;

constexpr size_t kAccounts = 1024;
constexpr size_t kHotAccounts = 8;
constexpr int64_t kInitialBalance = 1000;
constexpr size_t kBankTxnsPerThread = 125000;

constexpr size_t kPopulation = 20000;
constexpr size_t kCache = 2500;
constexpr size_t kChurnRequestsPerClient = 2400;
// Settled requests between two checkpoints: about one a second at the
// throughput this workload reaches on a 4-vCPU host.
constexpr size_t kCheckpointEvery = 25000;
constexpr size_t kTailRequestsPerClient = 32;
constexpr size_t kCreatorThreads = 3;
constexpr const char* kCounterFactory = "counter";

double Seconds(uint64_t ns) { return static_cast<double>(ns) / 1e9; }
double Millis(uint64_t ns) { return static_cast<double>(ns) / 1e6; }
double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

uint64_t Delta(uint64_t after, uint64_t before) {
  return after >= before ? after - before : 0;
}

// The round's scratch directory under $TMPDIR, removed with its files.
class ScratchDir {
 public:
  explicit ScratchDir(const char* prefix) : path_(MakeTempDir(prefix)) {
    CCR_CHECK_MSG(!path_.empty(), "cannot create a directory in %s",
                  TempDirRoot().c_str());
  }
  ~ScratchDir() {
    if (auto names = ListDir(path_); names.ok()) {
      for (const std::string& name : *names) {
        std::remove((path_ + "/" + name).c_str());
      }
    }
    ::rmdir(path_.c_str());
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  const std::string& path() const { return path_; }

  // Bytes of the regular files in the directory.
  uint64_t Bytes() const {
    uint64_t total = 0;
    if (auto names = ListDir(path_); names.ok()) {
      for (const std::string& name : *names) {
        struct stat st {};
        if (::stat((path_ + "/" + name).c_str(), &st) == 0) {
          total += static_cast<uint64_t>(st.st_size);
        }
      }
    }
    return total;
  }

 private:
  const std::string path_;
};

ObjectConfig CounterConfig(const ObjectId& id) {
  std::shared_ptr<Counter> adt = MakeCounter(id);
  ObjectConfig config;
  config.conflict = MakeNrbcConflict(adt);
  config.recovery = std::make_unique<UipRecovery>(adt);
  config.adt = std::move(adt);
  return config;
}

// Appends to a named string: GCC 12 warns falsely (-Wrestrict) on
// `"C" + std::to_string(i)`.
std::string NumberedId(char prefix, size_t i) {
  std::string id(1, prefix);
  id += std::to_string(i);
  return id;
}

std::string CounterId(size_t i) { return NumberedId('C', i); }

TxnManagerOptions ManagerOptions(size_t evict_high_watermark = 0) {
  TxnManagerOptions options;
  options.record_history = false;
  options.evict_high_watermark = evict_high_watermark;
  return options;
}

GroupCommitOptions GroupMode() {
  GroupCommitOptions options;
  options.mode = DurabilityMode::kGroup;
  return options;
}

// Builds a System `times` times, keeping the last, and records the median
// build time as setup_s. Builds after the first reuse the warmed heap, so
// a cheap setup is not dominated by a fresh process's first page faults.
template <typename System, typename... Args>
std::unique_ptr<System> BuildTimed(size_t times, RoundResult* out,
                                   const Args&... args) {
  std::vector<double> secs;
  std::unique_ptr<System> system;
  for (size_t i = 0; i < times; ++i) {
    system.reset();
    const uint64_t start = NowNs();
    system = std::make_unique<System>(args...);
    secs.push_back(Seconds(NowNs() - start));
  }
  out->e2e.Set("setup_s", Percentile(&secs, 50));
  return system;
}

// Setups timed per round of the workloads whose setup takes milliseconds.
constexpr size_t kCheapSetups = 5;

Invocation IncInv(const ObjectId& id) {
  return Invocation(id, Counter::kInc, "inc", {Value(int64_t{1})});
}

Invocation ReadInv(const ObjectId& id) {
  return Invocation(id, Counter::kRead, "read", {});
}

// Sums counters 0..n-1 in one read-only transaction.
StatusOr<int64_t> SumCounters(TxnManager* manager, size_t n) {
  int64_t sum = 0;
  const Status status = manager->RunTransaction([&](Transaction* txn) {
    sum = 0;
    for (size_t i = 0; i < n; ++i) {
      StatusOr<Value> v = manager->Execute(txn, ReadInv(CounterId(i)));
      if (!v.ok()) return v.status();
      sum += v->AsInt();
    }
    return Status::OK();
  });
  if (!status.ok()) return status;
  return sum;
}

// ---------------------------------------------------------------------------
// Closed-loop async clients over ServeFrontend
// ---------------------------------------------------------------------------

// One submission: 1 or 4 increments of uniformly drawn counters. Only the
// key indexes are generated ahead; the BatchOps are built at submit time,
// so the request set does not weigh on the process's memory.
struct Request {
  uint32_t keys[4] = {};
  uint32_t n_ops = 0;
  uint32_t id = 0;  // 1-based within the round
  uint32_t client = 0;
  uint64_t start_ns = 0;
  uint64_t latency_ns = 0;  // set on an OK completion
};

// Requests of `clients` clients, client c owning the contiguous block
// [c * per_client, (c + 1) * per_client). Ids continue after `first_id`.
std::vector<Request> MakeRequests(uint64_t seed, size_t per_client,
                                  size_t keys, uint32_t first_id) {
  Random rng(seed);
  std::vector<Request> requests(kClients * per_client);
  for (size_t i = 0; i < requests.size(); ++i) {
    Request& r = requests[i];
    r.n_ops = rng.Uniform(2) == 0 ? 1 : 4;
    for (uint32_t k = 0; k < r.n_ops; ++k) {
      r.keys[k] = static_cast<uint32_t>(rng.Uniform(keys));
    }
    r.id = first_id + static_cast<uint32_t>(i) + 1;
    r.client = static_cast<uint32_t>(i / per_client);
  }
  return requests;
}

class ClosedLoop {
 public:
  // `key_ops[k]` is the increment BatchOp of counter k.
  ClosedLoop(ServeFrontend* frontend, std::vector<Request>* requests,
             const std::vector<BatchOp>* key_ops)
      : frontend_(frontend), requests_(requests), key_ops_(key_ops) {
    const size_t per_client = requests->size() / kClients;
    for (size_t c = 0; c < kClients; ++c) {
      clients_[c].next = c * per_client;
      clients_[c].end = (c + 1) * per_client;
    }
  }
  ClosedLoop(const ClosedLoop&) = delete;
  ClosedLoop& operator=(const ClosedLoop&) = delete;

  // Submits every request, each client keeping kWindow outstanding, and
  // returns once all have settled. With `every` > 0, `progress` runs on
  // the calling thread each time `every` more requests have settled.
  void Run(size_t every, const std::function<void()>& progress) {
    every_ = every;
    for (Client& c : clients_) {
      for (size_t w = 0; w < kWindow; ++w) SubmitNext(&c);
    }
    size_t mark = every;
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      cv_.wait(lock, [&] {
        const uint64_t s = settled_.load(std::memory_order_acquire);
        return s >= requests_->size() || (every > 0 && s >= mark);
      });
      if (settled_.load(std::memory_order_acquire) >= requests_->size()) {
        break;
      }
      lock.unlock();
      progress();
      mark += every;
      lock.lock();
    }
    lock.unlock();
    frontend_->Drain();
  }

  uint64_t ok() const { return ok_.load(); }
  uint64_t errors() const { return errors_.load(); }
  uint64_t shed() const { return shed_.load(); }
  uint64_t acked_ops() const { return acked_ops_.load(); }

 private:
  struct Client {
    std::mutex mu;
    size_t next = 0;
    size_t end = 0;
  };

  void SubmitNext(Client* c) {
    Request* r;
    {
      std::lock_guard<std::mutex> lock(c->mu);
      if (c->next == c->end) return;
      r = &(*requests_)[c->next++];
    }
    std::vector<BatchOp> ops;
    ops.reserve(r->n_ops);
    for (uint32_t k = 0; k < r->n_ops; ++k) {
      ops.push_back((*key_ops_)[r->keys[k]]);
    }
    r->start_ns = NowNs();
    Status admitted;
    {
      trace::Scope span(trace::kSubmit, r->id, trace::Sampled(r->id));
      // Two captured pointers fit std::function's inline buffer: no heap
      // allocation per completion.
      admitted = frontend_->SubmitAsync(
          std::move(ops), [this, r](const Status& status,
                                    std::vector<Value> values) {
            OnDone(r, status, values.size());
          });
    }
    if (!admitted.ok()) {
      shed_.fetch_add(1, std::memory_order_relaxed);
      Settle();
    }
  }

  void OnDone(Request* r, const Status& status, size_t values) {
    const uint64_t end = NowNs();
    if (status.ok()) {
      r->latency_ns = end - r->start_ns;
      ok_.fetch_add(1, std::memory_order_relaxed);
      acked_ops_.fetch_add(values, std::memory_order_relaxed);
      if (trace::Sampled(r->id)) {
        trace::Record(trace::kRequest, r->start_ns, end, r->id);
      }
    } else {
      errors_.fetch_add(1, std::memory_order_relaxed);
    }
    SubmitNext(&clients_[r->client]);
    Settle();
  }

  void Settle() {
    const uint64_t n = settled_.fetch_add(1, std::memory_order_acq_rel) + 1;
    if (n == requests_->size() || (every_ > 0 && n % every_ == 0)) {
      std::lock_guard<std::mutex> lock(mu_);
      cv_.notify_all();
    }
  }

  ServeFrontend* const frontend_;
  std::vector<Request>* const requests_;
  const std::vector<BatchOp>* const key_ops_;
  size_t every_ = 0;
  Client clients_[kClients];
  std::atomic<uint64_t> ok_{0};
  std::atomic<uint64_t> errors_{0};
  std::atomic<uint64_t> shed_{0};
  std::atomic<uint64_t> acked_ops_{0};
  std::atomic<uint64_t> settled_{0};
  std::mutex mu_;
  std::condition_variable cv_;
};

// Latency percentiles (µs, sub-µs resolution) of the OK requests.
void SetRequestLatencies(const std::vector<Request>& requests,
                         RoundResult* out) {
  std::vector<double> us;
  us.reserve(requests.size());
  for (const Request& r : requests) {
    if (r.latency_ns > 0) us.push_back(static_cast<double>(r.latency_ns) / 1e3);
  }
  out->e2e.Set("latency_p50_us", Percentile(&us, 50));
  out->e2e.Set("latency_p99_us", Percentile(&us, 99));
}

// Counters of every layer a serving round touches, taken at the start and
// the end of the timed phase.
struct ServeSnapshot {
  ServeStats serve;
  GroupCommitStats pipeline;
  ManagerStats manager;
  ObjectStats objects;
  ObjectStoreStats store;
  uint64_t sink_bytes = 0;

  static ServeSnapshot Take(const ServeFrontend& frontend,
                            const GroupCommitPipeline& pipeline,
                            const TxnManager& manager, const TimedSink& sink,
                            const ObjectStore* store) {
    ServeSnapshot s;
    s.serve = frontend.stats();
    s.pipeline = pipeline.stats();
    s.manager = manager.stats();
    s.objects = manager.AggregateObjectStats();
    if (store != nullptr) s.store = store->stats();
    s.sink_bytes = sink.bytes();
    return s;
  }
};

void SetObjectLayers(const ObjectStats& a, const ObjectStats& b,
                     double ops, MetricSet* m) {
  m->Set("object.conflicts", Delta(a.conflicts, b.conflicts));
  m->Set("object.waits", Delta(a.waits, b.waits));
  m->Set("object.wait_us_p50", a.wait_time_us.Percentile(50));
  m->Set("object.wait_us_p99", a.wait_time_us.Percentile(99));
  m->Set("object.timeouts", Delta(a.timeouts, b.timeouts));
  m->Set("object.deadlock_victims",
         Delta(a.deadlock_victims, b.deadlock_victims));
  m->Set("object.wakeups", Delta(a.wakeups, b.wakeups));
  m->Set("object.spurious_wakeups",
         Delta(a.spurious_wakeups, b.spurious_wakeups));
  m->Set("object.max_queue_depth", a.max_queue_depth);
  m->Set("object.evictions", Delta(a.evictions, b.evictions));
  m->Set("object.fault_ins_per_op",
         Ratio(Delta(a.fault_ins, b.fault_ins), ops));
}

void SetManagerLayers(const ManagerStats& a, const ManagerStats& b,
                      MetricSet* m) {
  m->Set("txn.commit_ratio", Ratio(Delta(a.committed, b.committed),
                                   Delta(a.begun, b.begun)));
  m->Set("txn.retries", Delta(a.retries, b.retries));
  m->Set("txn.kills", Delta(a.kills, b.kills));
}

void SetServeLayers(const ServeSnapshot& a, const ServeSnapshot& b,
                    double acked_ops, size_t journal_entries,
                    MetricSet* m) {
  const uint64_t txns = Delta(a.serve.coalesced_txns, b.serve.coalesced_txns) +
                        Delta(a.serve.solo_txns, b.serve.solo_txns);
  m->Set("serve.subs_per_txn",
         Ratio(Delta(a.serve.accepted, b.serve.accepted), txns));
  m->Set("serve.demoted_groups",
         Delta(a.serve.demoted_groups, b.serve.demoted_groups));
  m->Set("serve.retries", Delta(a.serve.retries, b.serve.retries));
  m->Set("serve.shed", Delta(a.serve.shed, b.serve.shed));
  m->Set("serve.max_queue_depth", a.serve.max_queue_depth);

  const uint64_t records =
      Delta(a.pipeline.records_flushed, b.pipeline.records_flushed);
  const uint64_t syncs = Delta(a.pipeline.syncs, b.pipeline.syncs);
  m->Set("pipeline.records", records);
  m->Set("pipeline.syncs", syncs);
  m->Set("pipeline.records_per_sync", Ratio(records, syncs));
  m->Set("pipeline.max_batch", a.pipeline.max_batch_observed);

  m->Set("sink.bytes_per_op",
         Ratio(Delta(a.sink_bytes, b.sink_bytes), acked_ops));
  m->Set("journal.retained_entries", journal_entries);

  SetManagerLayers(a.manager, b.manager, m);
  SetObjectLayers(a.objects, b.objects, acked_ops, m);

  m->Set("store.get_hit_rate", Ratio(Delta(a.store.get_hits, b.store.get_hits),
                                     Delta(a.store.gets, b.store.gets)));
  m->Set("store.puts", Delta(a.store.puts, b.store.puts));
  m->Set("store.syncs", Delta(a.store.syncs, b.store.syncs));
  m->Set("store.compactions", Delta(a.store.compactions, b.store.compactions));
  m->Set("store.bytes_written_per_op",
         Ratio(Delta(a.store.bytes_written, b.store.bytes_written),
               acked_ops));
}

// Every attempted submission ends OK, in error, or shed at the door.
void SetLoopOutcome(const ClosedLoop& loop, uint64_t attempted,
                    RoundResult* out) {
  out->attempted += attempted;
  out->failed += loop.errors() + loop.shed();
  if (loop.ok() + loop.errors() + loop.shed() != attempted) {
    out->Fail("submissions unaccounted for: " + std::to_string(attempted) +
              " attempted, " + std::to_string(loop.ok()) + " ok, " +
              std::to_string(loop.errors()) + " errors, " +
              std::to_string(loop.shed()) + " shed");
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// serve_point
// ---------------------------------------------------------------------------

namespace {

// 4096 counters journaled through group commit into a FileSink, served by
// a one-worker ServeFrontend. Members are destroyed front end first.
struct ServeSystem {
  explicit ServeSystem(const std::string& path)
      : file(OpenFileSink(path)),
        sink(file.get()),
        writer(&sink),
        pipeline(&writer, GroupMode()),
        manager(ManagerOptions()) {
    journal.set_pipeline(&pipeline);
    key_ops.reserve(kServeKeys);
    for (size_t k = 0; k < kServeKeys; ++k) {
      const ObjectId id = CounterId(k);
      ObjectConfig c = CounterConfig(id);
      AtomicObject* obj = manager.AddObject(id, std::move(c.adt),
                                            std::move(c.conflict),
                                            std::move(c.recovery));
      obj->recovery().set_journal(&journal);
      key_ops.push_back(BatchOp{id, "", IncInv(id)});
    }
    manager.set_commit_pipeline(&pipeline);
    frontend = std::make_unique<ServeFrontend>(&manager);
  }

  static std::unique_ptr<FileSink> OpenFileSink(const std::string& path) {
    StatusOr<std::unique_ptr<FileSink>> file = FileSink::Open(path);
    CCR_CHECK_MSG(file.ok(), "%s", file.status().ToString().c_str());
    return std::move(*file);
  }

  std::unique_ptr<FileSink> file;
  TimedSink sink;
  JournalWriter writer;
  GroupCommitPipeline pipeline;
  Journal journal;
  TxnManager manager;
  std::vector<BatchOp> key_ops;
  std::unique_ptr<ServeFrontend> frontend;
};

}  // namespace

RoundResult RunServePoint(const RoundConfig& config) {
  RoundResult out;
  std::vector<Request> requests =
      MakeRequests(config.seed, kServeRequestsPerClient, kServeKeys, 0);
  ScratchDir dir("ccr_perfbench_serve_");
  std::unique_ptr<ServeSystem> sys = BuildTimed<ServeSystem>(
      kCheapSetups, &out, dir.path() + "/journal.wal");
  ServeFrontend& frontend = *sys->frontend;
  GroupCommitPipeline& pipeline = sys->pipeline;
  TxnManager& manager = sys->manager;
  const TimedSink& sink = sys->sink;
  const Journal& journal = sys->journal;

  const ServeSnapshot before =
      ServeSnapshot::Take(frontend, pipeline, manager, sink, nullptr);
  ClosedLoop loop(&frontend, &requests, &sys->key_ops);
  const uint64_t start = NowNs();
  loop.Run(0, {});
  out.timed_s = Seconds(NowNs() - start);
  const ServeSnapshot after =
      ServeSnapshot::Take(frontend, pipeline, manager, sink, nullptr);

  SetLoopOutcome(loop, requests.size(), &out);
  out.e2e.Set("throughput_tps", Ratio(loop.ok(), out.timed_s));
  SetRequestLatencies(requests, &out);
  SetServeLayers(after, before, loop.acked_ops(), journal.size(), &out.layer);

  // Audit: every acknowledged increment is in the journal and in the
  // counters, and nothing else is. The journal is counted before the audit
  // read, whose own commit record would add its reads.
  frontend.Stop();
  pipeline.Drain();
  out.layer.Set("disk_mb", static_cast<double>(dir.Bytes()) / (1 << 20));
  uint64_t journal_ops = 0;
  journal.ForEachRecord([&](const Journal::CommitRecord& record) {
    journal_ops += record.ops.size();
  });
  if (journal_ops != loop.acked_ops()) {
    out.Fail("serve_point: journal holds " + std::to_string(journal_ops) +
             " ops, acked " + std::to_string(loop.acked_ops()));
  }
  StatusOr<int64_t> sum = SumCounters(&manager, kServeKeys);
  if (!sum.ok()) {
    out.Fail("serve_point: audit read failed: " + sum.status().ToString());
  } else if (*sum != static_cast<int64_t>(loop.acked_ops())) {
    out.Fail("serve_point: counter sum " + std::to_string(*sum) +
             " != acked increments " + std::to_string(loop.acked_ops()));
  }
  return out;
}

// ---------------------------------------------------------------------------
// bank_hot
// ---------------------------------------------------------------------------

namespace {

struct BankOp {
  enum Kind : uint8_t { kRead2, kDeposit, kWithdraw, kTransfer };
  Kind kind = kRead2;
  uint16_t a = 0;
  uint16_t b = 0;
  int32_t amount = 0;
};

// Half the draws land on the 8 hot accounts, the rest uniformly on the
// other 1016.
uint16_t PickAccount(Random* rng) {
  if (rng->Uniform(2) == 0) return static_cast<uint16_t>(rng->Uniform(kHotAccounts));
  return static_cast<uint16_t>(kHotAccounts +
                               rng->Uniform(kAccounts - kHotAccounts));
}

std::vector<BankOp> MakeBankOps(uint64_t seed, size_t n) {
  Random rng(seed);
  std::vector<BankOp> ops(n);
  for (BankOp& op : ops) {
    const uint64_t mix = rng.Uniform(10);  // 20/40/20/20
    op.kind = mix < 2   ? BankOp::kRead2
              : mix < 6 ? BankOp::kDeposit
              : mix < 8 ? BankOp::kWithdraw
                        : BankOp::kTransfer;
    op.a = PickAccount(&rng);
    do {
      op.b = PickAccount(&rng);
    } while (op.b == op.a);
    op.amount = static_cast<int32_t>(1 + rng.Uniform(20));
  }
  return ops;
}

// 1024 BankAccounts under DU+NFC, each funded with kInitialBalance.
struct BankSystem {
  BankSystem() : manager(ManagerOptions()) {
    accounts.reserve(kAccounts);
    for (size_t i = 0; i < kAccounts; ++i) {
      auto adt = std::make_shared<BankAccount>(NumberedId('A', i));
      manager.AddObject(adt->object_name(), adt, MakeNfcConflict(adt),
                        std::make_unique<DuRecovery>(adt));
      accounts.push_back(std::move(adt));
    }
    for (const auto& account : accounts) {
      const Status s = manager.RunTransaction([&](Transaction* txn) {
        return manager.Execute(txn, account->DepositInv(kInitialBalance))
            .status();
      });
      CCR_CHECK_MSG(s.ok(), "%s", s.ToString().c_str());
    }
  }

  TxnManager manager;
  std::vector<std::shared_ptr<BankAccount>> accounts;
};

// Committed effects of one bank worker.
struct BankTally {
  uint64_t committed = 0;
  uint64_t failed = 0;
  int64_t deposited = 0;
  int64_t withdrawn = 0;
  std::vector<uint64_t> latency_ns;
};

}  // namespace

RoundResult RunBankHot(const RoundConfig& config) {
  RoundResult out;
  const size_t threads =
      std::max<size_t>(1, std::thread::hardware_concurrency());
  std::vector<std::vector<BankOp>> work(threads);
  for (size_t t = 0; t < threads; ++t) {
    work[t] = MakeBankOps(config.seed * 31 + t, kBankTxnsPerThread);
  }

  std::unique_ptr<BankSystem> sys = BuildTimed<BankSystem>(kCheapSetups, &out);
  TxnManager& manager = sys->manager;
  const std::vector<std::shared_ptr<BankAccount>>& accounts = sys->accounts;

  const ManagerStats mgr_before = manager.stats();
  const ObjectStats obj_before = manager.AggregateObjectStats();
  std::vector<BankTally> tallies(threads);
  std::atomic<bool> go{false};
  std::vector<std::thread> workers;
  for (size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      BankTally& tally = tallies[t];
      tally.latency_ns.reserve(work[t].size());
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (size_t i = 0; i < work[t].size(); ++i) {
        const BankOp& op = work[t][i];
        const uint32_t id = static_cast<uint32_t>(t * kBankTxnsPerThread + i + 1);
        const bool sampled = trace::Sampled(id);
        int64_t deposited = 0;
        int64_t withdrawn = 0;
        const auto exec = [&](Transaction* txn, const Invocation& inv) {
          trace::Scope span(trace::kTxnExecute, id, sampled);
          return manager.Execute(txn, inv);
        };
        const auto body = [&](Transaction* txn) -> Status {
          deposited = 0;
          withdrawn = 0;
          const BankAccount& a = *accounts[op.a];
          const BankAccount& b = *accounts[op.b];
          switch (op.kind) {
            case BankOp::kRead2: {
              StatusOr<Value> x = exec(txn, a.BalanceInv());
              if (!x.ok()) return x.status();
              return exec(txn, b.BalanceInv()).status();
            }
            case BankOp::kDeposit: {
              StatusOr<Value> r = exec(txn, a.DepositInv(op.amount));
              if (r.ok()) deposited = op.amount;
              return r.status();
            }
            case BankOp::kWithdraw:
            case BankOp::kTransfer: {
              StatusOr<Value> r = exec(txn, a.WithdrawInv(op.amount));
              if (!r.ok()) return r.status();
              if (r->AsString() != "ok") return Status::OK();
              withdrawn = op.amount;
              if (op.kind == BankOp::kWithdraw) return Status::OK();
              StatusOr<Value> d = exec(txn, b.DepositInv(op.amount));
              if (d.ok()) deposited = op.amount;
              return d.status();
            }
          }
          return Status::OK();
        };
        const uint64_t start = NowNs();
        Status status;
        {
          trace::Scope span(trace::kTxnRun, id, sampled);
          status = manager.RunTransaction([&](Transaction* txn) {
            trace::Scope attempt(trace::kTxnBody, id, sampled);
            return body(txn);
          });
        }
        tally.latency_ns.push_back(NowNs() - start);
        if (status.ok()) {
          ++tally.committed;
          tally.deposited += deposited;
          tally.withdrawn += withdrawn;
        } else {
          ++tally.failed;
        }
      }
    });
  }
  const uint64_t start = NowNs();
  go.store(true, std::memory_order_release);
  for (std::thread& w : workers) w.join();
  out.timed_s = Seconds(NowNs() - start);

  uint64_t committed = 0;
  int64_t expected = static_cast<int64_t>(kAccounts) * kInitialBalance;
  std::vector<double> us;
  for (const BankTally& tally : tallies) {
    committed += tally.committed;
    out.failed += tally.failed;
    expected += tally.deposited - tally.withdrawn;
    for (uint64_t ns : tally.latency_ns) {
      us.push_back(static_cast<double>(ns) / 1e3);
    }
  }
  out.attempted = threads * kBankTxnsPerThread;
  out.e2e.Set("throughput_tps", Ratio(committed, out.timed_s));
  out.e2e.Set("latency_p50_us", Percentile(&us, 50));
  out.e2e.Set("latency_p99_us", Percentile(&us, 99));
  SetManagerLayers(manager.stats(), mgr_before, &out.layer);
  SetObjectLayers(manager.AggregateObjectStats(), obj_before,
                  static_cast<double>(committed), &out.layer);

  // Audit: money is conserved and no balance is negative.
  int64_t total = 0;
  const Status read = manager.RunTransaction([&](Transaction* txn) {
    total = 0;
    for (const auto& account : accounts) {
      StatusOr<Value> v = manager.Execute(txn, account->BalanceInv());
      if (!v.ok()) return v.status();
      if (v->AsInt() < 0) {
        out.Fail("bank_hot: " + account->object_name() + " is negative");
      }
      total += v->AsInt();
    }
    return Status::OK();
  });
  if (!read.ok()) {
    out.Fail("bank_hot: audit read failed: " + read.ToString());
  } else if (total != expected) {
    out.Fail("bank_hot: total " + std::to_string(total) + " != expected " +
             std::to_string(expected));
  }
  return out;
}

// ---------------------------------------------------------------------------
// store_churn
// ---------------------------------------------------------------------------

RoundResult RunStoreChurn(const RoundConfig& config) {
  RoundResult out;
  std::vector<Request> requests =
      MakeRequests(config.seed, kChurnRequestsPerClient, kPopulation, 0);
  std::vector<Request> tail =
      MakeRequests(config.seed + 1, kTailRequestsPerClient, kPopulation,
                   static_cast<uint32_t>(requests.size()));
  std::vector<BatchOp> key_ops;
  key_ops.reserve(kPopulation);
  for (size_t i = 0; i < kPopulation; ++i) {
    const ObjectId id = CounterId(i);
    key_ops.push_back(BatchOp{id, kCounterFactory, IncInv(id)});
  }
  ScratchDir dir("ccr_perfbench_store_");
  const auto register_factory = [](TxnManager* m) {
    m->RegisterFactory(kCounterFactory, CounterConfig);
  };

  const uint64_t setup_start = NowNs();
  StatusOr<std::unique_ptr<LogStructuredStore>> opened =
      LogStructuredStore::Open(dir.path());
  CCR_CHECK_MSG(opened.ok(), "%s", opened.status().ToString().c_str());
  std::unique_ptr<LogStructuredStore> store_impl = std::move(*opened);
  auto store = std::make_unique<TimedStore>(store_impl.get());
  StatusOr<std::unique_ptr<SegmentedFileSink>> segmented =
      SegmentedFileSink::Open(dir.path(), 1);
  CCR_CHECK_MSG(segmented.ok(), "%s", segmented.status().ToString().c_str());
  std::unique_ptr<SegmentedFileSink> segments = std::move(*segmented);
  auto sink = std::make_unique<TimedSink>(segments.get());
  auto writer = std::make_unique<JournalWriter>(sink.get());
  auto pipeline =
      std::make_unique<GroupCommitPipeline>(writer.get(), GroupMode());
  auto journal = std::make_unique<Journal>();
  journal->set_pipeline(pipeline.get());
  auto manager = std::make_unique<TxnManager>(ManagerOptions(kCache));
  register_factory(manager.get());
  manager->set_object_store(store.get());
  manager->set_lifecycle_journal(journal.get());
  manager->set_commit_pipeline(pipeline.get());

  // Creators: each GetOrCreate journals a create record and waits for it
  // to be durable, so parallel creators share syncs.
  std::vector<std::vector<double>> create_us(kCreatorThreads);
  std::vector<std::thread> creators;
  for (size_t t = 0; t < kCreatorThreads; ++t) {
    creators.emplace_back([&, t] {
      for (size_t i = t; i < kPopulation; i += kCreatorThreads) {
        const uint64_t s = NowNs();
        StatusOr<AtomicObject*> obj =
            manager->GetOrCreate(CounterId(i), kCounterFactory);
        create_us[t].push_back(static_cast<double>(NowNs() - s) / 1e3);
        CCR_CHECK_MSG(obj.ok(), "%s", obj.status().ToString().c_str());
      }
    });
  }
  for (std::thread& c : creators) c.join();
  auto frontend = std::make_unique<ServeFrontend>(manager.get());
  out.e2e.Set("setup_s", Seconds(NowNs() - setup_start));

  std::vector<double> creates;
  for (const auto& v : create_us) creates.insert(creates.end(), v.begin(), v.end());
  out.layer.Set("directory.create_us_p50", Percentile(&creates, 50));
  out.layer.Set("directory.create_us_p99", Percentile(&creates, 99));
  out.layer.Set("directory.max_stripe_depth",
                manager->directory_stats().max_stripe_depth);

  CheckpointerOptions ckpt_options;
  ckpt_options.store = store.get();
  Checkpointer checkpointer(dir.path(), ckpt_options);
  std::vector<double> checkpoint_ms;
  const auto checkpoint = [&]() -> Lsn {
    const uint64_t s = NowNs();
    const StatusOr<Lsn> written = [&] {
      trace::Scope span(trace::kCheckpointWrite, 0);
      return checkpointer.Write(manager.get(), journal->high_lsn());
    }();
    checkpoint_ms.push_back(Millis(NowNs() - s));
    CCR_CHECK_MSG(written.ok(), "checkpoint: %s",
                  written.status().ToString().c_str());
    const Status truncated = segments->TruncateBelow(*written);
    CCR_CHECK_MSG(truncated.ok(), "truncate: %s",
                  truncated.ToString().c_str());
    return *written;
  };

  const ServeSnapshot before = ServeSnapshot::Take(
      *frontend, *pipeline, *manager, *sink, store.get());
  ClosedLoop loop(frontend.get(), &requests, &key_ops);
  const uint64_t start = NowNs();
  loop.Run(kCheckpointEvery, [&] { checkpoint(); });
  out.timed_s = Seconds(NowNs() - start);
  const ServeSnapshot after = ServeSnapshot::Take(
      *frontend, *pipeline, *manager, *sink, store.get());

  SetLoopOutcome(loop, requests.size(), &out);
  out.e2e.Set("throughput_tps", Ratio(loop.ok(), out.timed_s));
  SetRequestLatencies(requests, &out);
  SetServeLayers(after, before, loop.acked_ops(), journal->size(),
                 &out.layer);
  out.layer.Set("checkpoint.count", checkpoint_ms.size());
  out.layer.Set("checkpoint.write_ms_p50", Percentile(&checkpoint_ms, 50));
  out.layer.Set("checkpoint.write_ms_max", Percentile(&checkpoint_ms, 100));

  // Final checkpoint, a fixed tail past it, then discard the system.
  const Lsn anchor = checkpoint();
  ClosedLoop tail_loop(frontend.get(), &tail, &key_ops);
  tail_loop.Run(0, {});
  SetLoopOutcome(tail_loop, tail.size(), &out);
  const uint64_t acked_ops = loop.acked_ops() + tail_loop.acked_ops();
  frontend.reset();
  pipeline->Drain();
  out.layer.Set("disk_mb", static_cast<double>(dir.Bytes()) / (1 << 20));
  manager.reset();
  journal.reset();
  pipeline.reset();
  writer.reset();
  sink.reset();
  segments.reset();
  store.reset();
  store_impl.reset();

  // Restart: open the store and replay the directory into a new manager
  // (declared after the store, so it is destroyed first).
  const uint64_t open_start = NowNs();
  StatusOr<std::unique_ptr<LogStructuredStore>> reopened_impl =
      LogStructuredStore::Open(dir.path());
  const uint64_t open_ns = NowNs() - open_start;
  CCR_CHECK_MSG(reopened_impl.ok(), "%s",
                reopened_impl.status().ToString().c_str());
  TimedStore reopened(reopened_impl->get());
  TxnManager restarted(ManagerOptions());
  register_factory(&restarted);
  restarted.set_object_store(&reopened);
  const uint64_t replay_start = NowNs();
  const StatusOr<RestartSummary> summary = [&] {
    trace::Scope span(trace::kRestart, 0);
    return restarted.RestartFromDir(dir.path());
  }();
  const uint64_t replay_ns = NowNs() - replay_start;
  out.layer.Set("restart_ms", Millis(open_ns + replay_ns));
  out.layer.Set("restart.store_open_ms", Millis(open_ns));
  out.layer.Set("restart.replay_ms", Millis(replay_ns));
  if (!summary.ok()) {
    out.Fail("store_churn: restart failed: " + summary.status().ToString());
    return out;
  }
  out.layer.Set("restart.checkpoint_objects", summary->checkpoint_objects);
  out.layer.Set("restart.tail_records", summary->tail_records);
  out.layer.Set("restart.tail_skipped", summary->tail_skipped);

  // Audit: the restart starts from the final checkpoint and recovers every
  // acknowledged increment.
  if (summary->checkpoint_anchor != anchor) {
    out.Fail("store_churn: restart anchor " +
             std::to_string(summary->checkpoint_anchor) +
             " != final checkpoint anchor " + std::to_string(anchor));
  }
  StatusOr<int64_t> sum = SumCounters(&restarted, kPopulation);
  if (!sum.ok()) {
    out.Fail("store_churn: audit read failed: " + sum.status().ToString());
  } else if (*sum != static_cast<int64_t>(acked_ops)) {
    out.Fail("store_churn: recovered sum " + std::to_string(*sum) +
             " != acked increments " + std::to_string(acked_ops));
  }
  return out;
}

}  // namespace ccr::perfbench
