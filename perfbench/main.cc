// Copyright 2026 The ccr Authors.
//
// ccr_perfbench --workload <serve_point|bank_hot|store_churn> --seed <n>
//               --seconds <s> --trace <0|1> [--trace-out <file>]
//
// Runs rounds of one workload (each a fresh system doing a fixed amount of
// work, in its own child process) until --seconds have passed and at least
// kMinRounds rounds are done, then prints one JSON line: {"correct",
// "attempted", "failed", "metrics"}. With --trace 0 the metrics are the
// end-to-end ones, each the median over rounds. With --trace 1 rounds
// alternate untraced and traced; the metrics are the per-layer ones, each
// the median over traced rounds, plus the tracing overhead measured against
// the untraced rounds. Exits 1 when an audit fails, 2 on bad arguments, 3
// when a round's process fails.

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "bench.h"

namespace ccr::perfbench {

double Percentile(std::vector<double>* v, double p) {
  if (v->empty()) return 0;
  const size_t n = v->size();
  const size_t rank = std::clamp<size_t>(
      static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(n))), 1,
      n);
  std::nth_element(v->begin(), v->begin() + static_cast<long>(rank - 1),
                   v->end());
  return (*v)[rank - 1];
}

void MetricSet::Set(std::string_view name, double value) {
  for (auto& item : items_) {
    if (item.first == name) {
      item.second = value;
      return;
    }
  }
  items_.emplace_back(std::string(name), value);
}

double MetricSet::Get(std::string_view name) const {
  for (const auto& item : items_) {
    if (item.first == name) return item.second;
  }
  return 0;
}

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Every end-to-end metric is reported on every workload.
constexpr MetricDef kEndToEnd[] = {
    {"throughput_tps", "1/s"},
    {"peak_rss_mb", "MB"},
    {"setup_s", "s"},
};

// Every per-layer metric is reported on every workload; a layer a workload
// does not exercise reads 0.
constexpr MetricDef kPerLayer[] = {
    // End-to-end figures kept out of the gated set. The latencies move by
    // more than a tenth from run to run on a shared host, and in these
    // closed loops they follow throughput (Little's law). failed_frac is 0
    // whenever the run is healthy. restart_ms and disk_mb do not exist on
    // every workload.
    {"latency_p50_us", "us"},
    {"latency_p99_us", "us"},
    {"failed_frac", "ratio"},
    {"restart_ms", "ms"},
    {"disk_mb", "MB"},
    {"serve.submit_us_p50", "us"},
    {"serve.submit_us_p99", "us"},
    {"serve.subs_per_txn", "ratio"},
    {"serve.demoted_groups", "count"},
    {"serve.retries", "count"},
    {"serve.shed", "count"},
    {"serve.max_queue_depth", "count"},
    {"pipeline.records", "count"},
    {"pipeline.syncs", "count"},
    {"pipeline.records_per_sync", "ratio"},
    {"pipeline.max_batch", "count"},
    {"sink.append_us_p50", "us"},
    {"sink.append_us_p99", "us"},
    {"sink.sync_us_p50", "us"},
    {"sink.sync_us_p99", "us"},
    {"sink.bytes_per_op", "B"},
    {"journal.retained_entries", "count"},
    {"txn.execute_us_p50", "us"},
    {"txn.execute_us_p99", "us"},
    {"txn.commit_path_us_p50", "us"},
    {"txn.commit_path_us_p99", "us"},
    {"txn.commit_ratio", "ratio"},
    {"txn.retries", "count"},
    {"txn.kills", "count"},
    {"object.conflicts", "count"},
    {"object.waits", "count"},
    {"object.wait_us_p50", "us"},
    {"object.wait_us_p99", "us"},
    {"object.timeouts", "count"},
    {"object.deadlock_victims", "count"},
    {"object.wakeups", "count"},
    {"object.spurious_wakeups", "count"},
    {"object.max_queue_depth", "count"},
    {"object.evictions", "count"},
    {"object.fault_ins_per_op", "ratio"},
    {"store.get_us_p50", "us"},
    {"store.get_us_p99", "us"},
    {"store.apply_us_p50", "us"},
    {"store.apply_us_p99", "us"},
    {"store.get_hit_rate", "ratio"},
    {"store.puts", "count"},
    {"store.syncs", "count"},
    {"store.compactions", "count"},
    {"store.bytes_written_per_op", "B"},
    {"checkpoint.write_ms_p50", "ms"},
    {"checkpoint.write_ms_max", "ms"},
    {"checkpoint.count", "count"},
    {"restart.store_open_ms", "ms"},
    {"restart.replay_ms", "ms"},
    {"restart.checkpoint_objects", "count"},
    {"restart.tail_records", "count"},
    {"restart.tail_skipped", "count"},
    {"directory.create_us_p50", "us"},
    {"directory.create_us_p99", "us"},
    {"directory.max_stripe_depth", "count"},
    {"self.request_us", "us"},
    {"self.submit_us", "us"},
    {"self.txn_run_us", "us"},
    {"self.txn_body_us", "us"},
    {"self.txn_execute_us", "us"},
    {"self.sink_append_us", "us"},
    {"self.sink_sync_us", "us"},
    {"self.store_get_us", "us"},
    {"self.store_apply_us", "us"},
    {"self.store_scan_us", "us"},
    {"self.checkpoint_write_us", "us"},
    {"self.restart_us", "us"},
    {"trace.spans", "count"},
    {"trace.overhead_pct", "%"},
};

constexpr size_t kMinRounds = 3;

double Median(std::vector<double> v) { return Percentile(&v, 50); }

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double sum = 0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

// Peak resident set of this process (VmHWM), in MiB.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

// Per-layer times of one traced round, from its spans.
void SetSpanLayers(trace::Analysis* a, MetricSet* m) {
  const auto pct = [&](trace::Kind k, double p, bool self) {
    trace::KindTimes& t = a->kinds[k];
    return Percentile(self ? &t.self_ns : &t.dur_ns, p) / 1e3;
  };
  m->Set("serve.submit_us_p50", pct(trace::kSubmit, 50, false));
  m->Set("serve.submit_us_p99", pct(trace::kSubmit, 99, false));
  m->Set("sink.append_us_p50", pct(trace::kSinkAppend, 50, false));
  m->Set("sink.append_us_p99", pct(trace::kSinkAppend, 99, false));
  m->Set("sink.sync_us_p50", pct(trace::kSinkSync, 50, false));
  m->Set("sink.sync_us_p99", pct(trace::kSinkSync, 99, false));
  m->Set("txn.execute_us_p50", pct(trace::kTxnExecute, 50, false));
  m->Set("txn.execute_us_p99", pct(trace::kTxnExecute, 99, false));
  // RunTransaction's time outside the body: commit, abort and backoff.
  m->Set("txn.commit_path_us_p50", pct(trace::kTxnRun, 50, true));
  m->Set("txn.commit_path_us_p99", pct(trace::kTxnRun, 99, true));
  m->Set("store.get_us_p50", pct(trace::kStoreGet, 50, false));
  m->Set("store.get_us_p99", pct(trace::kStoreGet, 99, false));
  m->Set("store.apply_us_p50", pct(trace::kStoreApply, 50, false));
  m->Set("store.apply_us_p99", pct(trace::kStoreApply, 99, false));
  for (int k = 0; k < trace::kKindCount; ++k) {
    m->Set(std::string("self.") + trace::KindName(static_cast<trace::Kind>(k)) +
               "_us",
           Mean(a->kinds[k].self_ns) / 1e3);
  }
  m->Set("trace.spans", static_cast<double>(a->spans));
}

// Runs one round in a child process, so that every round starts from a
// fresh heap and its peak RSS is its own. The parent starts no threads; the
// child reports its RoundResult through a pipe as "kind name value" lines.
StatusOr<RoundResult> RunRoundInChild(RoundResult (*run)(const RoundConfig&),
                                      const RoundConfig& config,
                                      const std::string& trace_out,
                                      int round) {
  int fds[2];
  if (::pipe(fds) != 0) return Status(StatusCode::kInternal, "pipe failed");
  std::fflush(stdout);
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) return Status(StatusCode::kInternal, "fork failed");
  if (pid == 0) {
    // Never outlive the parent process.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(5);
    ::close(fds[0]);
    trace::SetEnabled(config.traced);
    RoundResult result = run(config);
    trace::SetEnabled(false);
    if (config.traced) {
      trace::Analysis analysis = trace::Collect(trace_out, round);
      SetSpanLayers(&analysis, &result.layer);
    }
    result.e2e.Set("peak_rss_mb", PeakRssMb());
    std::string text = "correct " + std::to_string(result.correct ? 1 : 0) +
                       "\nattempted " + std::to_string(result.attempted) +
                       "\nfailed " + std::to_string(result.failed) +
                       "\ntimed_s " + std::to_string(result.timed_s) + "\n";
    for (const auto* set : {&result.e2e, &result.layer}) {
      for (const auto& [name, value] : set->items()) {
        char line[256];
        std::snprintf(line, sizeof(line), "%s %s %.17g\n",
                      set == &result.e2e ? "e2e" : "layer", name.c_str(),
                      value);
        text += line;
      }
    }
    // The error text goes last: it may hold spaces.
    text += "error " + result.error + "\n";
    size_t off = 0;
    while (off < text.size()) {
      const ssize_t n = ::write(fds[1], text.data() + off, text.size() - off);
      if (n <= 0) ::_exit(4);
      off += static_cast<size_t>(n);
    }
    ::close(fds[1]);
    std::fflush(stdout);
    ::_exit(0);
  }
  ::close(fds[1]);
  std::string text;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(fds[0], buf, sizeof(buf))) > 0) {
    text.append(buf, static_cast<size_t>(n));
  }
  ::close(fds[0]);
  int wstatus = 0;
  while (::waitpid(pid, &wstatus, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(wstatus) || WEXITSTATUS(wstatus) != 0) {
    return Status(StatusCode::kInternal, "round process failed");
  }
  RoundResult result;
  std::istringstream in(text);
  std::string kind;
  while (in >> kind) {
    if (kind == "error") {
      std::getline(in, result.error);
      if (!result.error.empty()) result.error.erase(0, 1);
      break;
    }
    if (kind == "e2e" || kind == "layer") {
      std::string name;
      double value = 0;
      in >> name >> value;
      (kind == "e2e" ? result.e2e : result.layer).Set(name, value);
    } else if (kind == "correct") {
      int c = 0;
      in >> c;
      result.correct = c == 1;
    } else if (kind == "attempted") {
      in >> result.attempted;
    } else if (kind == "failed") {
      in >> result.failed;
    } else if (kind == "timed_s") {
      in >> result.timed_s;
    }
  }
  return result;
}

int Usage() {
  std::fprintf(stderr,
               "usage: ccr_perfbench --workload "
               "<serve_point|bank_hot|store_churn> --seed <n> --seconds <s> "
               "--trace <0|1> [--trace-out <file>]\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) return Usage();
    args[argv[i] + 2] = argv[i + 1];
  }
  if (argc % 2 != 1 || !args.count("workload") || !args.count("seed") ||
      !args.count("seconds") || !args.count("trace")) {
    return Usage();
  }
  const std::string workload = args["workload"];
  RoundResult (*run)(const RoundConfig&) = nullptr;
  if (workload == "serve_point") run = RunServePoint;
  if (workload == "bank_hot") run = RunBankHot;
  if (workload == "store_churn") run = RunStoreChurn;
  char* end = nullptr;
  const uint64_t seed = std::strtoull(args["seed"].c_str(), &end, 10);
  const bool seed_ok = *end == '\0';
  const double seconds = std::strtod(args["seconds"].c_str(), &end);
  const bool seconds_ok = *end == '\0' && seconds > 0;
  const std::string trace_arg = args["trace"];
  if (run == nullptr || !seed_ok || !seconds_ok ||
      (trace_arg != "0" && trace_arg != "1")) {
    return Usage();
  }
  const bool tracing = trace_arg == "1";
  const std::string trace_out = args.count("trace-out") ? args["trace-out"] : "";
  if (!trace_out.empty()) std::fclose(std::fopen(trace_out.c_str(), "w"));

  std::vector<RoundResult> rounds;
  const uint64_t start = NowNs();
  for (int r = 0;; ++r) {
    RoundConfig config;
    // Distinct, reproducible inputs per round.
    config.seed = seed * 0x9E3779B97F4A7C15ull + static_cast<uint64_t>(r) + 1;
    config.traced = tracing && r % 2 == 1;
    StatusOr<RoundResult> round = RunRoundInChild(run, config, trace_out, r);
    if (!round.ok()) {
      std::fprintf(stderr, "round %d: %s\n", r,
                   round.status().ToString().c_str());
      return 3;
    }
    std::printf("# round %d%s: %.2f s timed, %llu attempted, %llu failed, "
                "%.0f tps, p50 %.1f us, p99 %.1f us, setup %.3f s, "
                "peak rss %.1f MB%s%s\n",
                r, config.traced ? " (traced)" : "", round->timed_s,
                static_cast<unsigned long long>(round->attempted),
                static_cast<unsigned long long>(round->failed),
                round->e2e.Get("throughput_tps"),
                round->e2e.Get("latency_p50_us"),
                round->e2e.Get("latency_p99_us"), round->e2e.Get("setup_s"),
                round->e2e.Get("peak_rss_mb"),
                round->correct ? "" : ", AUDIT FAILED: ",
                round->error.c_str());
    std::fflush(stdout);
    const bool done = static_cast<double>(NowNs() - start) / 1e9 >= seconds &&
                      rounds.size() + 1 >= (tracing ? kMinRounds + 1 : kMinRounds);
    rounds.push_back(std::move(*round));
    if (done || !rounds.back().correct) break;
  }

  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  for (const RoundResult& r : rounds) {
    correct = correct && r.correct;
    attempted += r.attempted;
    failed += r.failed;
  }
  const auto median_of = [&](const char* name, bool traced_rounds,
                             bool layer) {
    std::vector<double> values;
    for (size_t r = 0; r < rounds.size(); ++r) {
      if (tracing && (r % 2 == 1) != traced_rounds) continue;
      values.push_back(layer ? rounds[r].layer.Get(name)
                             : rounds[r].e2e.Get(name));
    }
    return Median(values);
  };

  MetricSet metrics;
  const MetricDef* defs = tracing ? kPerLayer : kEndToEnd;
  const size_t n_defs = tracing ? std::size(kPerLayer) : std::size(kEndToEnd);
  for (size_t i = 0; i < n_defs; ++i) {
    metrics.Set(defs[i].name, median_of(defs[i].name, true, tracing));
  }
  if (tracing) {
    metrics.Set("failed_frac", attempted > 0 ? static_cast<double>(failed) /
                                                   static_cast<double>(attempted)
                                             : 0);
    // From the untraced rounds: tracing would inflate them.
    metrics.Set("latency_p50_us", median_of("latency_p50_us", false, false));
    metrics.Set("latency_p99_us", median_of("latency_p99_us", false, false));
    const double plain = median_of("throughput_tps", false, false);
    const double traced = median_of("throughput_tps", true, false);
    metrics.Set("trace.overhead_pct",
                traced > 0 ? (plain / traced - 1) * 100 : 0);
  }

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < n_defs; ++i) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", defs[i].name,
                  metrics.Get(defs[i].name), defs[i].unit);
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace ccr::perfbench

int main(int argc, char** argv) { return ccr::perfbench::Main(argc, argv); }
