/**
 * @file
 * strix_serverd: the multi-tenant encrypted-compute serving daemon.
 *
 * Binds a loopback port and serves the MSG1 protocol (see
 * net/wire.h): tenants upload EVK2 key bundles, then submit
 * Bootstrap / ApplyLut / EvalCircuit requests whose PBS work batches
 * across tenants through the shared BatchExecutor. SIGINT/SIGTERM
 * trigger a clean drain: pending responses are fulfilled and flushed
 * before exit.
 *
 * This process is evaluation-only by construction: it links no code
 * that can touch a secret key (lint-enforced), so operating it
 * requires no more trust than holding ciphertexts does.
 */

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "net/client.h"
#include "server/server.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void
onSignal(int /*sig*/)
{
    g_stop = 1;
}

void
usage(const char *argv0)
{
    std::printf(
        "usage: %s [options]\n"
        "  --port N            listen port (default 7780; 0 = ephemeral)\n"
        "  --budget-mb N       tenant key-memory budget in MiB (0 = unbounded)\n"
        "  --target-batch N    PBS batch width trigger (default 16)\n"
        "  --flush-delay-us N  PBS batch deadline trigger (default 200)\n"
        "  --send-mtu N        response coalescing threshold bytes (default 16384)\n"
        "  --send-flush-us N   response coalescing delay (default 100)\n"
        "  --max-inflight N    per-tenant in-flight admission cap (default 32)\n"
        "  --queue-depth N     global in-flight admission cap (default 256)\n"
        "  --selftest          bind ephemeral, ping self once, drain, exit\n",
        argv0);
}

uint64_t
parseU64(const char *flag, const char *value)
{
    char *end = nullptr;
    const unsigned long long v = std::strtoull(value, &end, 10);
    if (end == value || *end != '\0') {
        std::fprintf(stderr, "strix_serverd: bad value for %s: %s\n",
                     flag, value);
        std::exit(2);
    }
    return static_cast<uint64_t>(v);
}

int
selftest(strix::StrixServer::Options opts)
{
    opts.port = 0;
    strix::StrixServer server(opts);
    if (!server.start()) {
        std::fprintf(stderr, "strix_serverd: selftest bind failed\n");
        return 1;
    }
    strix::StrixClient client;
    if (!client.connectLoopback(server.port())) {
        std::fprintf(stderr, "strix_serverd: selftest connect failed\n");
        return 1;
    }
    if (!client.ping()) {
        std::fprintf(stderr, "strix_serverd: selftest ping failed\n");
        return 1;
    }
    server.stop();
    std::printf("strix_serverd: selftest ok (port %u)\n",
                unsigned(server.port()));
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    strix::StrixServer::Options opts;
    opts.port = 7780;
    bool run_selftest = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr,
                             "strix_serverd: %s needs a value\n",
                             arg.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else if (arg == "--port") {
            opts.port = static_cast<uint16_t>(parseU64("--port", next()));
        } else if (arg == "--budget-mb") {
            opts.cache_budget_bytes =
                parseU64("--budget-mb", next()) << 20;
        } else if (arg == "--target-batch") {
            opts.exec.target_batch =
                size_t(parseU64("--target-batch", next()));
        } else if (arg == "--flush-delay-us") {
            opts.exec.flush_delay_us =
                parseU64("--flush-delay-us", next());
        } else if (arg == "--send-mtu") {
            opts.send.mtu_bytes = size_t(parseU64("--send-mtu", next()));
        } else if (arg == "--send-flush-us") {
            opts.send.flush_delay_us =
                parseU64("--send-flush-us", next());
        } else if (arg == "--max-inflight") {
            opts.max_inflight_per_tenant =
                size_t(parseU64("--max-inflight", next()));
        } else if (arg == "--queue-depth") {
            opts.max_queue_depth =
                size_t(parseU64("--queue-depth", next()));
        } else if (arg == "--selftest") {
            run_selftest = true;
        } else {
            std::fprintf(stderr, "strix_serverd: unknown flag %s\n",
                         arg.c_str());
            usage(argv[0]);
            return 2;
        }
    }

    if (run_selftest)
        return selftest(opts);

    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);

    strix::StrixServer server(opts);
    if (!server.start()) {
        std::fprintf(stderr, "strix_serverd: cannot bind port %u\n",
                     unsigned(opts.port));
        return 1;
    }
    std::printf("strix_serverd: serving on 127.0.0.1:%u\n",
                unsigned(server.port()));
    std::fflush(stdout);

    while (!g_stop)
        std::this_thread::sleep_for(std::chrono::milliseconds(100));

    std::printf("strix_serverd: draining...\n");
    server.stop();
    const strix::StrixServer::Stats s = server.stats();
    std::printf("strix_serverd: served %llu requests "
                "(%llu ok, %llu errors, %llu busy)\n",
                (unsigned long long)s.requests,
                (unsigned long long)s.ok_replies,
                (unsigned long long)s.error_replies,
                (unsigned long long)s.busy_rejects);
    return 0;
}
