/**
 * @file
 * Stress tests for the deadline-aware io primitives under the ugly
 * realities they exist to absorb: EINTR storms from a signal-spamming
 * peer, short reads/writes across a nonblocking pipe whose tiny
 * kernel buffer forces partial transfers, and absolute deadlines that
 * bind even when the peer keeps the connection trickling (the
 * slow-loris case a per-call timeout could not catch).
 */

#include <gtest/gtest.h>

#if defined(_WIN32)

TEST(Io, SkippedOnWindows) { GTEST_SKIP(); }

#else

#include <csignal>
#include <cstdint>
#include <cstring>
#include <fcntl.h>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "common/io.hh"

using namespace unico;
using common::IoStatus;

namespace {

/** A no-op handler so signals interrupt syscalls (SA_RESTART off)
 *  instead of killing the process. */
void
onUsr1(int)
{}

void
installUsr1()
{
    struct sigaction sa;
    std::memset(&sa, 0, sizeof sa);
    sa.sa_handler = onUsr1;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = 0; // deliberately NOT SA_RESTART
    ASSERT_EQ(sigaction(SIGUSR1, &sa, nullptr), 0);
}

/** Pattern byte for offset @p i so torn transfers are detectable. */
char
patternAt(std::size_t i)
{
    return static_cast<char>((i * 131 + 17) & 0xff);
}

} // namespace

TEST(Io, ReadFullSurvivesEintrStormAndShortReads)
{
    installUsr1();
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    // Shrink the pipe so the writer is forced into short writes and
    // the reader sees the payload in many fragments.
#ifdef F_SETPIPE_SZ
    (void)::fcntl(fds[1], F_SETPIPE_SZ, 4096);
#endif
    ASSERT_TRUE(common::setNonblocking(fds[0]));
    ASSERT_TRUE(common::setNonblocking(fds[1]));

    constexpr std::size_t kBytes = 1 << 20; // 1 MiB >> pipe buffer
    const pthread_t reader_thread = pthread_self();

    // Writer thread: dribbles the payload in small randomized chunks
    // while spamming the reader with SIGUSR1 to force EINTR on as
    // many reads as possible.
    std::thread writer([&] {
        std::uint64_t z = 0x9e3779b97f4a7c15ULL;
        std::size_t off = 0;
        std::vector<char> chunk;
        while (off < kBytes) {
            z ^= z << 13;
            z ^= z >> 7;
            z ^= z << 17;
            const std::size_t len =
                std::min<std::size_t>(1 + z % 1500, kBytes - off);
            chunk.resize(len);
            for (std::size_t i = 0; i < len; ++i)
                chunk[i] = patternAt(off + i);
            pthread_kill(reader_thread, SIGUSR1);
            ASSERT_EQ(common::writeFullUntil(
                          fds[1], chunk.data(), len,
                          common::monotonicNow() + 30.0),
                      IoStatus::Ok);
            off += len;
            pthread_kill(reader_thread, SIGUSR1);
        }
        ::close(fds[1]); // EOF boundary for the trailing read below
    });

    std::vector<char> buf(kBytes);
    ASSERT_EQ(common::readFullUntil(fds[0], buf.data(), kBytes,
                                    common::monotonicNow() + 30.0),
              IoStatus::Ok);
    for (std::size_t i = 0; i < kBytes; ++i)
        ASSERT_EQ(buf[i], patternAt(i)) << "offset " << i;

    // After the writer closes: a further read is a clean Eof with
    // zero bytes transferred, not an error.
    writer.join();
    std::size_t got = 99;
    char extra = 0;
    EXPECT_EQ(common::readFullUntil(fds[0], &extra, 1,
                                    common::monotonicNow() + 1.0, &got),
              IoStatus::Eof);
    EXPECT_EQ(got, 0u);
    ::close(fds[0]);
}

TEST(Io, WriteFullSurvivesEintrStormAgainstSlowReader)
{
    installUsr1();
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
#ifdef F_SETPIPE_SZ
    (void)::fcntl(fds[1], F_SETPIPE_SZ, 4096);
#endif
    ASSERT_TRUE(common::setNonblocking(fds[0]));
    ASSERT_TRUE(common::setNonblocking(fds[1]));

    constexpr std::size_t kBytes = 1 << 20;
    const pthread_t writer_thread = pthread_self();

    // Reader thread: drains slowly in small chunks while signaling
    // the writer, so the writer hits EAGAIN (full pipe) and EINTR
    // (signals) on the same transfer.
    std::vector<char> seen;
    seen.reserve(kBytes);
    std::thread reader([&] {
        char chunk[997];
        while (seen.size() < kBytes) {
            pthread_kill(writer_thread, SIGUSR1);
            std::size_t got = 0;
            const IoStatus st = common::readFullUntil(
                fds[0], chunk,
                std::min(sizeof chunk, kBytes - seen.size()),
                common::monotonicNow() + 30.0, &got);
            ASSERT_TRUE(st == IoStatus::Ok || st == IoStatus::Eof);
            seen.insert(seen.end(), chunk, chunk + got);
            if (st == IoStatus::Eof)
                break;
        }
    });

    std::vector<char> payload(kBytes);
    for (std::size_t i = 0; i < kBytes; ++i)
        payload[i] = patternAt(i);
    ASSERT_EQ(common::writeFullUntil(fds[1], payload.data(), kBytes,
                                     common::monotonicNow() + 30.0),
              IoStatus::Ok);
    ::close(fds[1]);
    reader.join();

    ASSERT_EQ(seen.size(), kBytes);
    for (std::size_t i = 0; i < kBytes; ++i)
        ASSERT_EQ(seen[i], patternAt(i)) << "offset " << i;
    ::close(fds[0]);
}

TEST(Io, ReadDeadlineBindsAgainstSlowLorisPeer)
{
    // A peer that trickles one byte at a time refreshes any per-read
    // timeout forever; the ABSOLUTE deadline must expire anyway.
    // The reader closes its end first, so the loris thread's writes
    // race an EPIPE — ignore SIGPIPE so that race can't kill us.
    signal(SIGPIPE, SIG_IGN);
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    ASSERT_TRUE(common::setNonblocking(fds[0]));

    std::thread loris([&] {
        for (int i = 0; i < 200; ++i) {
            const char b = 'x';
            if (::write(fds[1], &b, 1) != 1)
                break;
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
    });

    char buf[4096]; // far more than the loris will ever deliver
    const double start = common::monotonicNow();
    std::size_t got = 0;
    const IoStatus st = common::readFullUntil(
        fds[0], buf, sizeof buf, start + 0.25, &got);
    const double elapsed = common::monotonicNow() - start;
    EXPECT_EQ(st, IoStatus::Timeout);
    EXPECT_GT(got, 0u);            // it WAS making "progress"
    EXPECT_LT(got, sizeof buf);    // ...but never finished
    EXPECT_LT(elapsed, 2.0);       // and the deadline actually bound
    ::close(fds[0]);
    loris.join();
    ::close(fds[1]);
}

TEST(Io, WriteDeadlineBindsWhenPeerNeverDrains)
{
    // Nobody reads: the pipe fills and the bounded write must give
    // up at the deadline instead of wedging forever.
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
#ifdef F_SETPIPE_SZ
    (void)::fcntl(fds[1], F_SETPIPE_SZ, 4096);
#endif
    ASSERT_TRUE(common::setNonblocking(fds[1]));

    std::vector<char> payload(1 << 20, 'y');
    const double start = common::monotonicNow();
    EXPECT_EQ(common::writeFullUntil(fds[1], payload.data(),
                                     payload.size(), start + 0.2),
              IoStatus::Timeout);
    EXPECT_LT(common::monotonicNow() - start, 2.0);
    ::close(fds[0]);
    ::close(fds[1]);
}

TEST(Io, WriteToClosedReaderIsEofNotSigpipe)
{
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    ::close(fds[0]);
    // SIGPIPE must not kill the process; pipes take the EPIPE path.
    signal(SIGPIPE, SIG_IGN);
    std::vector<char> payload(1 << 16, 'z');
    EXPECT_EQ(common::writeFullUntil(fds[1], payload.data(),
                                     payload.size(),
                                     common::monotonicNow() + 1.0),
              IoStatus::Eof);
    ::close(fds[1]);
}

TEST(Io, ReadReportsPartialProgressOnEof)
{
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    ASSERT_EQ(common::writeFull(fds[1], "abc", 3), IoStatus::Ok);
    ::close(fds[1]);
    char buf[8] = {};
    std::size_t got = 0;
    EXPECT_EQ(common::readFullUntil(fds[0], buf, sizeof(buf), 0.0, &got),
              IoStatus::Eof);
    EXPECT_EQ(got, 3u);
    EXPECT_EQ(std::string(buf, 3), "abc");
    ::close(fds[0]);
}

TEST(Io, SetCloexecTogglesTheFlag)
{
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    EXPECT_TRUE(common::setCloexec(fds[0]));
    EXPECT_TRUE(::fcntl(fds[0], F_GETFD) & FD_CLOEXEC);
    EXPECT_TRUE(common::setCloexec(fds[0], false));
    EXPECT_FALSE(::fcntl(fds[0], F_GETFD) & FD_CLOEXEC);
    ::close(fds[0]);
    ::close(fds[1]);
}

#endif // !_WIN32
