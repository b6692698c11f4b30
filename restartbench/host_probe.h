// Host-ceiling probe, run once per round so every run records the host's
// phase next to the work it measured. Each probe moves a fixed 4 MiB with
// the same two threads the copy engine uses (2 MiB each):
//   memcpy       warm heap -> warm heap (the copy loop's upper bound)
//   first_touch  warm heap -> fresh shared anonymous pages (what a shutdown
//                copy into new shm segments and a restore copy into new
//                heap pages pay on top of memcpy)
//   seq_read     pread of a page-cached file in the run's backup directory
//   crc32c       crc32c::Extend over a warm buffer (restore verifies every
//                block with it), single thread
#ifndef RESTARTBENCH_HOST_PROBE_H_
#define RESTARTBENCH_HOST_PROBE_H_

#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "trace.h"
#include "util/crc32c.h"

namespace restartbench {

class HostProbe {
 public:
  static constexpr size_t kBytes = 4u << 20;
  static constexpr int kThreads = 2;

  struct Sample {
    double memcpy_gib_s = 0;
    double first_touch_gib_s = 0;
    double seq_read_gib_s = 0;
    double crc32c_gib_s = 0;
  };

  /// `file` must hold at least kBytes; it is written here once.
  explicit HostProbe(std::string file)
      : file_(std::move(file)), src_(kBytes), dst_(kBytes) {
    for (size_t i = 0; i < kBytes; ++i) src_[i] = static_cast<uint8_t>(i * 131);
    std::memset(dst_.data(), 1, kBytes);
    int fd = ::open(file_.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    ok_ = fd >= 0 && ::write(fd, src_.data(), kBytes) ==
                         static_cast<ssize_t>(kBytes);
    if (fd >= 0) ::close(fd);
  }

  bool ok() const { return ok_; }

  bool Run(Sample* out) {
    const size_t part = kBytes / kThreads;
    out->memcpy_gib_s = Rate(Parallel([&](size_t t) {
      std::memcpy(dst_.data() + t * part, src_.data() + t * part, part);
      return true;
    }));

    void* fresh = ::mmap(nullptr, kBytes, PROT_READ | PROT_WRITE,
                         MAP_SHARED | MAP_ANONYMOUS, -1, 0);
    if (fresh == MAP_FAILED) return false;
    auto* fresh_bytes = static_cast<uint8_t*>(fresh);
    out->first_touch_gib_s = Rate(Parallel([&](size_t t) {
      std::memcpy(fresh_bytes + t * part, src_.data() + t * part, part);
      return true;
    }));
    ::munmap(fresh, kBytes);

    int fd = ::open(file_.c_str(), O_RDONLY);
    if (fd < 0) return false;
    bool read_ok = true;
    out->seq_read_gib_s = Rate(Parallel([&](size_t t) {
      size_t done = 0;
      while (done < part) {
        ssize_t n = ::pread(fd, dst_.data() + t * part + done, part - done,
                            static_cast<off_t>(t * part + done));
        if (n <= 0) return false;
        done += static_cast<size_t>(n);
      }
      return true;
    }, &read_ok));
    ::close(fd);

    int64_t start = NowMicros();
    checksum_ ^= scuba::crc32c::Extend(0, src_.data(), kBytes);
    out->crc32c_gib_s = Rate(NowMicros() - start);
    return read_ok;
  }

  /// Keeps the checksum observable so the probe cannot be optimised away.
  uint32_t checksum() const { return checksum_; }

 private:
  static double Rate(int64_t micros) {
    if (micros <= 0) micros = 1;
    return static_cast<double>(kBytes) / (1u << 30) /
           (static_cast<double>(micros) / 1e6);
  }

  template <typename Fn>
  static int64_t Parallel(Fn fn, bool* ok = nullptr) {
    std::vector<char> results(kThreads, 1);
    int64_t start = NowMicros();
    std::vector<std::thread> threads;
    for (size_t t = 1; t < kThreads; ++t) {
      threads.emplace_back([&, t] { results[t] = fn(t) ? 1 : 0; });
    }
    results[0] = fn(0) ? 1 : 0;
    for (std::thread& th : threads) th.join();
    int64_t micros = NowMicros() - start;
    if (ok != nullptr) {
      for (char r : results) *ok = *ok && r != 0;
    }
    return micros;
  }

  std::string file_;
  std::vector<uint8_t> src_;
  std::vector<uint8_t> dst_;
  bool ok_ = false;
  uint32_t checksum_ = 0;
};

}  // namespace restartbench

#endif  // RESTARTBENCH_HOST_PROBE_H_
