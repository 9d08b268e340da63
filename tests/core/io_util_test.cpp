#include "core/io_util.h"

#include <gtest/gtest.h>

#ifndef _WIN32

#include <pthread.h>
#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>

namespace fsct {
namespace {

TEST(IoUtil, WriteAllResumesAcrossShortWrites) {
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  // Far beyond the default pipe buffer, so write(2) is forced to return
  // short counts and write_all has to resume from the right offset.
  const std::string payload(1 << 20, 'x');
  std::string got;
  std::thread reader([&] {
    char buf[4096];
    long n;
    while ((n = read_retry(fds[0], buf, sizeof buf)) > 0) got.append(buf, n);
  });
  EXPECT_TRUE(write_all(fds[1], payload.data(), payload.size()));
  close(fds[1]);
  reader.join();
  close(fds[0]);
  EXPECT_EQ(got, payload);
}

TEST(IoUtil, WriteLineAppendsNewlineInOneBuffer) {
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  EXPECT_TRUE(write_line(fds[1], "hello"));
  char buf[16];
  const long n = read_retry(fds[0], buf, sizeof buf);
  EXPECT_EQ(std::string(buf, static_cast<std::size_t>(n)), "hello\n");
  close(fds[0]);
  close(fds[1]);
}

TEST(IoUtil, ReadRetryAbsorbsEintr) {
  // The fsct SIGUSR1 handler is installed without SA_RESTART, so blocking
  // reads in the process really do come back EINTR.  Install a no-op handler the
  // same way and pepper a blocked reader with signals: read_retry must keep
  // retrying until real data arrives instead of surfacing the interrupt.
  struct sigaction sa {};
  sa.sa_handler = +[](int) {};
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // no SA_RESTART: EINTR is real
  struct sigaction prev {};
  ASSERT_EQ(sigaction(SIGUSR2, &sa, &prev), 0);

  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  std::atomic<bool> started{false};
  long got = -2;
  char buf[8] = {};
  std::thread t([&] {
    started = true;
    got = read_retry(fds[0], buf, sizeof buf);
  });
  while (!started) std::this_thread::yield();
  for (int i = 0; i < 20; ++i) {
    pthread_kill(t.native_handle(), SIGUSR2);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(write_all(fds[1], "ok", 2));
  t.join();
  EXPECT_EQ(got, 2);
  EXPECT_EQ(std::string(buf, 2), "ok");
  close(fds[0]);
  close(fds[1]);
  sigaction(SIGUSR2, &prev, nullptr);
}

}  // namespace
}  // namespace fsct

#endif  // _WIN32
