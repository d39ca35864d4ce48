// Copyright 2026 The ccr Authors.
//
// Timing decorators over the journal's ByteSink and the ObjectStore: the
// sink.* and store.* layer metrics without an edit to the engine.

#include "bench.h"

namespace ccr::perfbench {

Status TimedSink::Append(std::string_view bytes) {
  trace::Scope span(trace::kSinkAppend, 0);
  bytes_.fetch_add(bytes.size(), std::memory_order_relaxed);
  return inner_->Append(bytes);
}

Status TimedSink::Sync() {
  trace::Scope span(trace::kSinkSync, 0);
  return inner_->Sync();
}

Status TimedStore::ApplyBatch(const StoreWriteBatch& batch,
                              Durability durability) {
  trace::Scope span(trace::kStoreApply, 0);
  return inner_->ApplyBatch(batch, durability);
}

StatusOr<std::string> TimedStore::Get(const std::string& key) {
  trace::Scope span(trace::kStoreGet, 0);
  return inner_->Get(key);
}

Status TimedStore::Scan(
    const std::function<Status(const std::string&, const std::string&)>&
        fn) {
  trace::Scope span(trace::kStoreScan, 0);
  return inner_->Scan(fn);
}

}  // namespace ccr::perfbench
