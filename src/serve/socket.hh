/**
 * @file
 * TCP primitives for the job server.
 *
 * Thin, deadline-aware wrappers over BSD sockets: parse "host:port"
 * endpoints, bind a listener, accept with a timeout, and connect with
 * a timeout. Every connected socket comes back tuned the same way —
 * TCP_NODELAY (HTTP request/response, Nagle only adds latency),
 * SO_KEEPALIVE (detect silently dead peers), close-on-exec, and
 * non-blocking (so the common/io absolute-deadline transfer helpers
 * can bound every read and write). IPv4 only.
 */

#ifndef UNICO_SERVE_SOCKET_HH
#define UNICO_SERVE_SOCKET_HH

#include <cstdint>
#include <string>

#include "common/io.hh"

namespace unico::serve {

/** A parsed "host:port" endpoint. */
struct Endpoint
{
    std::string host; ///< dotted quad or name; empty means wildcard
    std::uint16_t port = 0;
};

/**
 * Parse "host:port" (":0" and "0.0.0.0:7700" both valid). Returns
 * false with a diagnostic in @p error on malformed input.
 */
bool parseEndpoint(const std::string &addr, Endpoint &out,
                   std::string *error = nullptr);

/**
 * Bind + listen on @p addr ("host:port"; port 0 picks a free port).
 * Returns the listening fd (blocking, close-on-exec, SO_REUSEADDR)
 * or -1 with a diagnostic in @p error.
 */
int tcpListen(const std::string &addr, std::string *error = nullptr);

/** Actual bound port of a listening fd (resolves ":0"), or -1. */
int boundPort(int listen_fd);

/**
 * Accept one connection, waiting up to @p deadline_seconds
 * (<= 0 waits forever). Returns a tuned connected fd, or -1 with
 * the wait outcome in @p status (Timeout vs Error/Eof).
 */
int tcpAccept(int listen_fd, double deadline_seconds,
              common::IoStatus *status = nullptr);

/**
 * Connect to @p addr within @p deadline_seconds (<= 0 waits forever,
 * bounded in practice by the kernel SYN timeout). Returns a tuned
 * connected fd or -1 with a diagnostic in @p error.
 */
int tcpConnect(const std::string &addr, double deadline_seconds,
               std::string *error = nullptr);

} // namespace unico::serve

#endif // UNICO_SERVE_SOCKET_HH
