// Ablation / micro-benchmarks of the baseband codecs (google-benchmark).
//
// Quantifies the per-packet cost of the pure-function substrate: hop
// selection, sync-word generation and correlation, FEC, CRC/HEC and
// whitening. These dominate the simulator's per-bit work, so their cost
// directly sets the clock-cycles-per-second figure of bench_kernel.
#include <benchmark/benchmark.h>

#include "baseband/access_code.hpp"
#include "baseband/address.hpp"
#include "baseband/crc.hpp"
#include "baseband/fec.hpp"
#include "baseband/hec.hpp"
#include "baseband/hop.hpp"
#include "baseband/packet.hpp"
#include "baseband/whitening.hpp"
#include "sim/rng.hpp"

namespace {

using namespace btsc;
using namespace btsc::baseband;

void BM_HopSelection(benchmark::State& state) {
  HopInput in;
  in.address = BdAddr(0x2A96EF, 0x5B, 1).hop_address();
  in.mode = HopMode::kConnection;
  std::uint32_t clk = 0;
  for (auto _ : state) {
    in.clock = clk;
    clk += 2;
    benchmark::DoNotOptimize(hop_frequency(in));
  }
}
BENCHMARK(BM_HopSelection);

void BM_SyncWordGeneration(benchmark::State& state) {
  std::uint32_t lap = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sync_bits(lap));
    lap = (lap + 0x1057) & 0xFFFFFF;
  }
}
BENCHMARK(BM_SyncWordGeneration);

void BM_CorrelatorPush(benchmark::State& state) {
  Correlator corr(sync_bits(kGiacLap));
  sim::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(corr.push(rng.bernoulli(0.5)));
  }
}
BENCHMARK(BM_CorrelatorPush);

void BM_Fec23EncodeDm1(benchmark::State& state) {
  sim::BitVector body(160);  // full DM1 body incl. CRC
  for (auto _ : state) {
    benchmark::DoNotOptimize(fec23_encode(body));
  }
}
BENCHMARK(BM_Fec23EncodeDm1);

void BM_Fec23DecodeDm1(benchmark::State& state) {
  const auto coded = fec23_encode(sim::BitVector(160));
  for (auto _ : state) {
    benchmark::DoNotOptimize(fec23_decode(coded));
  }
}
BENCHMARK(BM_Fec23DecodeDm1);

void BM_Crc16Dh5Payload(benchmark::State& state) {
  std::vector<std::uint8_t> payload(339, 0x5A);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc16_compute(payload, 0x47));
  }
}
BENCHMARK(BM_Crc16Dh5Payload);

void BM_HecHeader(benchmark::State& state) {
  std::uint16_t header = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(hec_compute10(header, 0x47));
    ++header;
  }
}
BENCHMARK(BM_HecHeader);

void BM_WhitenDh5(benchmark::State& state) {
  sim::BitVector payload(2744);
  for (auto _ : state) {
    Whitener w(0x55);
    w.apply(payload);
    benchmark::DoNotOptimize(payload);
  }
}
BENCHMARK(BM_WhitenDh5);

void BM_ComposeDm1(benchmark::State& state) {
  PacketHeader h;
  h.type = PacketType::kDm1;
  const auto body = build_acl_body(PacketType::kDm1, kLlidStart, true,
                                   std::vector<std::uint8_t>(17, 1));
  LinkParams params;
  params.whiten_init = 0x55;
  sim::BitVector bits;
  for (auto _ : state) {
    bits.clear();
    compose_after_access_code(h, body, params, bits);
    benchmark::DoNotOptimize(bits);
  }
}
BENCHMARK(BM_ComposeDm1);

}  // namespace

BENCHMARK_MAIN();
