#pragma once
// Fork-safety check. fork() copies only the calling thread; a lock any
// other thread holds at that moment stays locked forever in the child,
// so every fork() in the library must come from a process running one
// thread. Call sites assert it with
//
//   MRLR_DEBUG_REQUIRE(single_threaded(), "...");
//
// which is live in Debug and sanitizer builds and compiles out under
// NDEBUG.

#include <cstddef>

namespace mrlr {

/// Threads in this process: the entries of /proc/self/task (0 when that
/// directory cannot be read).
std::size_t thread_count();

/// True when this process runs exactly one thread. A thread that was just
/// joined can stay listed for a moment after pthread_join returns, so a
/// higher count is re-read for up to ~100 ms before giving up. Always
/// true under ThreadSanitizer, whose runtime keeps a background thread,
/// and when /proc is unavailable.
bool single_threaded();

}  // namespace mrlr
