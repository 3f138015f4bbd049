#pragma once

#include <cstddef>
#include <cstdint>

// Counters kept by the global operator new/delete replacement in
// alloc_hook.cpp. The replacement serves the whole test binary, so every
// test runs on it; tests read deltas around the code they measure.
namespace elephant::test {

/// Calls to any global operator new since process start.
[[nodiscard]] std::uint64_t alloc_calls();
/// Bytes requested from any global operator new since process start.
[[nodiscard]] std::uint64_t alloc_bytes();
/// Bytes returned through the sized operator delete forms since process
/// start (unsized deletes carry no size and are not counted).
[[nodiscard]] std::uint64_t sized_free_bytes();
/// Largest single operator new request since the last
/// reset_largest_alloc() (or process start).
[[nodiscard]] std::size_t largest_alloc();
void reset_largest_alloc();

}  // namespace elephant::test
