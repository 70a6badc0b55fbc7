/**
 * @file
 * Tests for the job server's socket primitives: "host:port" endpoint
 * parsing (the server's --listen address) and a loopback
 * listen/connect/accept with the accept deadline.
 */

#include <gtest/gtest.h>

#if defined(_WIN32)

TEST(Net, SkippedOnWindows) { GTEST_SKIP(); }

#else

#include <string>
#include <unistd.h>

#include "common/io.hh"
#include "serve/socket.hh"

using namespace unico;

TEST(Net, ParseEndpoint)
{
    serve::Endpoint ep;
    EXPECT_TRUE(serve::parseEndpoint("127.0.0.1:8080", ep));
    EXPECT_EQ(ep.host, "127.0.0.1");
    EXPECT_EQ(ep.port, 8080);
    EXPECT_TRUE(serve::parseEndpoint(":0", ep));
    EXPECT_EQ(ep.port, 0);
    EXPECT_FALSE(serve::parseEndpoint("nohost", ep));
    EXPECT_FALSE(serve::parseEndpoint("host:notaport", ep));
    EXPECT_FALSE(serve::parseEndpoint("host:70000", ep));
    EXPECT_FALSE(serve::parseEndpoint("", ep));
}

TEST(Net, LoopbackListenConnectAcceptWithDeadline)
{
    std::string error;
    const int listen_fd = serve::tcpListen("127.0.0.1:0", &error);
    ASSERT_GE(listen_fd, 0) << error;
    const int port = serve::boundPort(listen_fd);
    ASSERT_GT(port, 0);

    // Nobody dialled in: the accept deadline binds.
    common::IoStatus status = common::IoStatus::Ok;
    EXPECT_LT(serve::tcpAccept(listen_fd, 0.05, &status), 0);
    EXPECT_EQ(status, common::IoStatus::Timeout);

    const int client = serve::tcpConnect(
        "127.0.0.1:" + std::to_string(port), 5.0, &error);
    ASSERT_GE(client, 0) << error;
    const int server = serve::tcpAccept(listen_fd, 5.0, &status);
    ASSERT_GE(server, 0);
    EXPECT_EQ(status, common::IoStatus::Ok);

    ::close(server);
    ::close(client);
    ::close(listen_fd);
}

#endif // !_WIN32
