#pragma once

#include <ostream>
#include <vector>

#include "sim/snapshot.hpp"
#include "trace/trace.hpp"

namespace elephant::trace {

/// Accumulates records in memory — the sink tests and analysis code use.
class MemorySink : public TraceSink {
 public:
  void write(std::span<const TraceRecord> batch) override {
    records_.insert(records_.end(), batch.begin(), batch.end());
  }
  [[nodiscard]] const std::vector<TraceRecord>& records() const { return records_; }
  void clear() { records_.clear(); }

 private:
  std::vector<TraceRecord> records_;
};

/// Streams records as CSV rows (header first). The caller owns the stream
/// and must keep it alive for the sink's lifetime.
class CsvSink : public TraceSink {
 public:
  explicit CsvSink(std::ostream& out);
  void write(std::span<const TraceRecord> batch) override;
  void flush() override { out_.flush(); }

 private:
  std::ostream& out_;
};

/// Folds every record into a 64-bit FNV-1a digest over a canonical field
/// encoding (no struct padding, doubles by bit pattern). Two traces digest
/// equal iff they contain the same records in the same order — the cheap
/// backbone of the engine-swap determinism regression tests.
class DigestSink : public TraceSink {
 public:
  void write(std::span<const TraceRecord> batch) override;

  /// Digest of everything written so far (order-sensitive).
  [[nodiscard]] std::uint64_t digest() const { return hash_; }
  [[nodiscard]] std::uint64_t count() const { return count_; }

 private:
  std::uint64_t hash_ = sim::kFnvOffset;
  std::uint64_t count_ = 0;
};

}  // namespace elephant::trace
