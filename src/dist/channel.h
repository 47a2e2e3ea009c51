// Point-to-point message channel between distributed-hive processes.
//
// The router and shard workers speak through Channels so the same
// router/worker code runs over two transports:
//
//   * SimNetChannel — in-process, deterministic, tick-driven; the test
//     double. Trace payloads are moved end-to-end with zero copies
//     (net_test pins this), and credit grants travel as separate
//     kMsgCredit messages so trace buffers are never wrapped or re-framed.
//   * SocketChannel (dist/socket.h) — nonblocking TCP or Unix-domain
//     stream carrying length-prefixed frames; credit grants piggyback in
//     the frame header.
//
// The socket-vs-SimNet differential test holds the router/worker logic
// fixed and swaps only this layer, so byte-identical results across the two
// implementations certify the real transport.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/varint.h"
#include "net/simnet.h"
#include "obs/trace.h"
#include "pod/protocol.h"

namespace softborg::dist {

// One received message. `credit` carries a flow-control grant that rode
// along (header field on sockets, kMsgCredit message on SimNet — the
// channel normalizes both into this form).
struct Delivery {
  std::uint32_t type = 0;
  std::uint32_t credit = 0;
  Bytes payload;
  // Causal trace context that rode the frame's v2 extension. Invalid on v1
  // frames and on SimNet (deterministic transport: the receiver re-derives
  // the context from the trace wire itself, see obs::causal_trace_id).
  obs::TraceContext ctx;
};

class Channel {
 public:
  virtual ~Channel() = default;

  // Queues a message; `credit` is a piggybacked flow-control grant. The
  // payload is moved (never copied) into the transport. A valid `ctx` rides
  // the frame's trace extension on sockets; SimNet drops it (see Delivery).
  virtual void send(std::uint32_t type, Bytes payload,
                    std::uint32_t credit = 0,
                    obs::TraceContext ctx = {}) = 0;

  // A bare grant with no message. Default: an empty kMsgCredit send.
  virtual void send_credit(std::uint32_t credit) {
    send(kMsgCredit, Bytes{}, credit);
  }

  // Returns everything received since the last poll, in arrival order.
  virtual std::vector<Delivery> poll() = 0;

  // False once the peer is unreachable (socket error/close). SimNet
  // channels never die: their faults are loss, duplication and partitions.
  // Credit is exact only on a channel that delivers each message exactly
  // once; a lost or duplicated trace or grant leaks or inflates the
  // router's credit for good (ROADMAP item 6).
  virtual bool alive() const = 0;

  // Pushes buffered writes toward the peer (socket backlog drain). SimNet
  // progress is the owner ticking the net, so this is a no-op there.
  virtual void flush() {}
};

// One side of a SimNet-backed channel pair.
class SimNetChannel final : public Channel {
 public:
  SimNetChannel(SimNet& net, Endpoint local, Endpoint remote)
      : net_(net), local_(local), remote_(remote) {}

  void send(std::uint32_t type, Bytes payload, std::uint32_t credit = 0,
            obs::TraceContext ctx = {}) override;
  std::vector<Delivery> poll() override;
  bool alive() const override { return true; }

  Endpoint local_endpoint() const { return local_; }

 private:
  SimNet& net_;
  Endpoint local_;
  Endpoint remote_;
};

// Two connected channels over `net` (first ↔ second).
std::pair<std::unique_ptr<SimNetChannel>, std::unique_ptr<SimNetChannel>>
make_simnet_channel_pair(SimNet& net);

}  // namespace softborg::dist
