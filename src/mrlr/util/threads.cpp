#include "mrlr/util/threads.hpp"

#include <dirent.h>

#include <chrono>
#include <thread>

#if defined(__SANITIZE_THREAD__)
#define MRLR_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)  // clang's spelling
#define MRLR_TSAN 1
#endif
#endif

namespace mrlr {

std::size_t thread_count() {
  DIR* dir = ::opendir("/proc/self/task");
  if (dir == nullptr) return 0;
  std::size_t n = 0;
  while (const ::dirent* e = ::readdir(dir)) {
    if (e->d_name[0] != '.') ++n;
  }
  ::closedir(dir);
  return n;
}

bool single_threaded() {
#ifdef MRLR_TSAN
  return true;
#else
  for (int attempt = 0; attempt < 100; ++attempt) {
    if (thread_count() <= 1) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
#endif
}

}  // namespace mrlr
