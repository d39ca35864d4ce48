// Copyright 2026 The ccr Authors.
//
// Span recorder of the traced pass: per-thread buffers registered once per
// thread, a stack of open scopes for same-thread nesting, and the self-time
// analysis run after each traced round.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "bench.h"

namespace ccr::perfbench::trace {
namespace {

struct Span {
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint32_t id = 0;
  int32_t parent = -1;  // index in the same thread's buffer
  Kind kind = kRequest;
};

struct ThreadBuf {
  std::vector<Span> spans;
  std::vector<int32_t> open;  // indexes of the open scopes, innermost last
};

std::atomic<bool> g_enabled{false};
std::mutex g_mu;
// Owned here so a buffer outlives its thread (serve workers and flushers
// exit before the round is analysed).
std::vector<std::unique_ptr<ThreadBuf>> g_bufs;
thread_local ThreadBuf* t_buf = nullptr;

ThreadBuf* Buf() {
  if (t_buf == nullptr) {
    std::lock_guard<std::mutex> lock(g_mu);
    g_bufs.push_back(std::make_unique<ThreadBuf>());
    t_buf = g_bufs.back().get();
  }
  return t_buf;
}

int32_t Push(ThreadBuf* buf, Kind kind, uint64_t start, uint64_t end,
             uint32_t id) {
  Span span;
  span.start_ns = start;
  span.end_ns = end;
  span.id = id;
  span.parent = buf->open.empty() ? -1 : buf->open.back();
  span.kind = kind;
  buf->spans.push_back(span);
  return static_cast<int32_t>(buf->spans.size() - 1);
}

// Length of the union of `children` clipped to [lo, hi].
uint64_t Covered(std::vector<std::pair<uint64_t, uint64_t>>* children,
                 uint64_t lo, uint64_t hi) {
  std::sort(children->begin(), children->end());
  uint64_t covered = 0;
  uint64_t cursor = lo;
  for (const auto& [s, e] : *children) {
    const uint64_t from = std::max(s, cursor);
    const uint64_t to = std::min(e, hi);
    if (to > from) {
      covered += to - from;
      cursor = to;
    }
  }
  return covered;
}

}  // namespace

const char* KindName(Kind kind) {
  static const char* const kNames[kKindCount] = {
      "request",    "submit",      "txn_run",    "txn_body", "txn_execute",
      "sink_append", "sink_sync",  "store_get",  "store_apply",
      "store_scan", "checkpoint_write", "restart"};
  return kNames[kind];
}

void SetEnabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }

void Record(Kind kind, uint64_t start_ns, uint64_t end_ns, uint32_t id) {
  Push(Buf(), kind, start_ns, end_ns, id);
}

Scope::Scope(Kind kind, uint32_t id, bool on) {
  if (!on) return;
  ThreadBuf* buf = Buf();
  const int32_t index = Push(buf, kind, NowNs(), 0, id);
  buf->open.push_back(index);
  buf_ = buf;
  index_ = static_cast<size_t>(index);
}

Scope::~Scope() {
  if (buf_ == nullptr) return;
  ThreadBuf* buf = static_cast<ThreadBuf*>(buf_);
  buf->spans[index_].end_ns = NowNs();
  buf->open.pop_back();
}

Analysis Collect(const std::string& out_path, int round) {
  std::lock_guard<std::mutex> lock(g_mu);
  Analysis analysis;

  // Children of each span, as (thread, index) -> child intervals.
  const auto key = [](size_t thread, size_t index) {
    return (static_cast<uint64_t>(thread) << 32) | index;
  };
  std::unordered_map<uint64_t, std::vector<std::pair<uint64_t, uint64_t>>>
      children;
  std::unordered_map<uint32_t, uint64_t> request_of_id;
  for (size_t t = 0; t < g_bufs.size(); ++t) {
    const std::vector<Span>& spans = g_bufs[t]->spans;
    for (size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].kind == kRequest) request_of_id[spans[i].id] = key(t, i);
    }
  }
  for (size_t t = 0; t < g_bufs.size(); ++t) {
    const std::vector<Span>& spans = g_bufs[t]->spans;
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      uint64_t parent = UINT64_MAX;
      if (s.parent >= 0) {
        parent = key(t, static_cast<size_t>(s.parent));
      } else if (s.kind != kRequest) {
        auto it = request_of_id.find(s.id);
        if (s.id != 0 && it != request_of_id.end()) parent = it->second;
      }
      if (parent != UINT64_MAX) {
        children[parent].emplace_back(s.start_ns, s.end_ns);
      }
    }
  }

  std::FILE* out =
      out_path.empty() ? nullptr : std::fopen(out_path.c_str(), "a");
  for (size_t t = 0; t < g_bufs.size(); ++t) {
    std::vector<Span>& spans = g_bufs[t]->spans;
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      const uint64_t dur = s.end_ns > s.start_ns ? s.end_ns - s.start_ns : 0;
      uint64_t covered = 0;
      auto it = children.find(key(t, i));
      if (it != children.end()) {
        covered = Covered(&it->second, s.start_ns, s.end_ns);
      }
      KindTimes& kt = analysis.kinds[s.kind];
      kt.dur_ns.push_back(static_cast<double>(dur));
      kt.self_ns.push_back(static_cast<double>(dur - covered));
      if (out != nullptr) {
        std::fprintf(out, "%d\t%zu\t%zu\t%s\t%u\t%d\t%llu\t%llu\n", round, t,
                     i, KindName(s.kind), s.id, s.parent,
                     static_cast<unsigned long long>(s.start_ns),
                     static_cast<unsigned long long>(s.end_ns));
      }
    }
    analysis.spans += spans.size();
    std::vector<Span>().swap(spans);
    g_bufs[t]->open.clear();
  }
  if (out != nullptr) std::fclose(out);
  return analysis;
}

}  // namespace ccr::perfbench::trace
