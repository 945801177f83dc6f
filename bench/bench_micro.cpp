// Google-benchmark microbenchmarks of the PR-ESP engines: floorplanner
// candidate enumeration, annealing placer, negotiated-congestion router,
// NoC packet transport, bitstream compression, calibration fitting, the
// runtime reconfiguration swap, and the WAMI kernels. End-to-end timing of
// the flow, the WAMI application and the fleet lives in perfbench/.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bitstream/bitstream.hpp"
#include "core/calibration.hpp"
#include "floorplan/floorplanner.hpp"
#include "noc/noc.hpp"
#include "pnr/engine.hpp"
#include "runtime/api.hpp"
#include "util/log.hpp"
#include "wami/accelerators.hpp"
#include "wami/frame_generator.hpp"
#include "wami/kernels.hpp"

using namespace presp;

namespace {

void BM_FloorplanCandidates(benchmark::State& state) {
  const auto device = fabric::Device::vc707();
  const floorplan::Floorplanner planner(device);
  const fabric::ResourceVec demand{
      state.range(0), state.range(0), 16, 64};
  for (auto _ : state) {
    benchmark::DoNotOptimize(planner.candidates(demand));
  }
}
BENCHMARK(BM_FloorplanCandidates)->Arg(5'000)->Arg(30'000);

void BM_FloorplanPlanFourPartitions(benchmark::State& state) {
  const auto device = fabric::Device::vc707();
  const floorplan::Floorplanner planner(device);
  std::vector<floorplan::PartitionRequest> reqs;
  for (int i = 0; i < 4; ++i)
    reqs.push_back({"RT_" + std::to_string(i), {25'000, 25'000, 16, 64}});
  floorplan::FloorplanOptions opt;
  opt.refine_iterations = 50;
  for (auto _ : state) {
    benchmark::DoNotOptimize(planner.plan(reqs, {83'000, 83'000, 100, 50},
                                          opt));
  }
}
BENCHMARK(BM_FloorplanPlanFourPartitions);

netlist::Netlist scrambled_netlist(int cells) {
  netlist::Netlist nl("bench");
  for (int i = 0; i < cells; ++i)
    nl.add_cell({"c" + std::to_string(i),
                 netlist::CellKind::kLogic,
                 {180, 180, 0, 0},
                 ""});
  for (int i = 0; i < cells; ++i) {
    const int j = (i * 53 + 17) % cells;
    if (j == i) continue;
    nl.add_net({"n" + std::to_string(i), static_cast<netlist::CellId>(i),
                {static_cast<netlist::CellId>(j)}, 32});
  }
  return nl;
}

void BM_PlacerAnneal(benchmark::State& state) {
  const auto device = fabric::Device::vc707();
  const auto nl = scrambled_netlist(static_cast<int>(state.range(0)));
  pnr::PlacerOptions opt;
  opt.temperature_steps = 10;
  opt.moves_per_cell = 2;
  const pnr::Placer placer(device, opt);
  for (auto _ : state) {
    benchmark::DoNotOptimize(placer.place(nl, {}));
  }
}
BENCHMARK(BM_PlacerAnneal)->Arg(100)->Arg(400);

void BM_RouterNegotiation(benchmark::State& state) {
  const auto device = fabric::Device::vc707();
  const auto nl = scrambled_netlist(300);
  pnr::PlacerOptions popt;
  popt.temperature_steps = 4;
  popt.moves_per_cell = 1;
  const auto placed = pnr::Placer(device, popt).place(nl, {});
  const pnr::Router router(device);
  for (auto _ : state) {
    pnr::RoutingState rs(device);
    benchmark::DoNotOptimize(router.route(nl, placed.placement, rs));
  }
}
BENCHMARK(BM_RouterNegotiation);

void BM_NocTransport(benchmark::State& state) {
  for (auto _ : state) {
    sim::Kernel kernel;
    noc::Noc noc(kernel, 3, 3);
    auto sink = [&]() -> sim::Process {
      while (true) (void)co_await noc.rx(8, noc::Plane::kDmaRsp).receive();
    };
    sink();
    for (int i = 0; i < 1'000; ++i)
      noc.send({noc::Plane::kDmaRsp, 0, 8, 64, 0, 0});
    kernel.run();
    benchmark::DoNotOptimize(noc.stats(noc::Plane::kDmaRsp).flits);
  }
}
BENCHMARK(BM_NocTransport);

void BM_RleCompress(benchmark::State& state) {
  Rng rng(7);
  std::vector<std::uint32_t> words(100'000);
  for (auto& w : words)
    w = rng.next_bool(0.25) ? static_cast<std::uint32_t>(rng.next_u64() | 1)
                            : 0u;
  for (auto _ : state) {
    benchmark::DoNotOptimize(bitstream::rle_compress(words));
  }
}
BENCHMARK(BM_RleCompress);

void BM_WamiLucasKanadeStep(benchmark::State& state) {
  wami::FrameGenerator gen(
      wami::SceneOptions{static_cast<int>(state.range(0)),
                         static_cast<int>(state.range(0)), 1.0, -0.5, 2, 6,
                         2.0, 1.0, 5});
  const auto f0 = wami::grayscale(wami::debayer(gen.next_frame()));
  const auto f1 = wami::grayscale(wami::debayer(gen.next_frame()));
  for (auto _ : state) {
    wami::AffineParams p{};
    benchmark::DoNotOptimize(wami::lucas_kanade_step(f0, f1, p));
  }
}
BENCHMARK(BM_WamiLucasKanadeStep)->Arg(64)->Arg(128);

void BM_CalibrationFit(benchmark::State& state) {
  const auto device = fabric::Device::vc707();
  core::RuntimeModelConstants truth;
  truth.ts1 = 0.8;
  truth.m1 = 0.3;
  std::vector<core::Observation> observations;
  for (const long long s : {40'000LL, 80'000LL, 95'000LL}) {
    core::Observation serial;
    serial.static_luts = s;
    serial.static_region_luts = 260'000 - s;
    serial.groups = {{37'000, 31'000, 21'000}};
    serial.serial = true;
    serial.measured_minutes =
        core::predict_observation(device, truth, serial);
    observations.push_back(serial);
    core::Observation par = serial;
    par.serial = false;
    par.groups = {{37'000}, {31'000}, {21'000}};
    par.measured_minutes = core::predict_observation(device, truth, par);
    observations.push_back(par);
  }
  core::CalibrationOptions opt;
  opt.sweeps = 10;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::fit_constants(device, observations, {}, opt));
  }
}
BENCHMARK(BM_CalibrationFit);

void BM_RuntimeReconfigurationSwap(benchmark::State& state) {
  // Simulated cost is fixed; this measures the *host* cost of simulating
  // one module swap + run through the full manager/NoC/DFXC path.
  const auto registry =
      wami::wami_accelerator_registry(wami::WamiWorkload{64, 64});
  for (auto _ : state) {
    soc::Soc soc(wami::table6_soc('X'), registry);
    runtime::BitstreamStore store(soc.memory());
    runtime::ReconfigurationManager manager(soc, store);
    const int tile = soc.reconf_tiles()[0]->index();
    store.add(tile, "debayer", 300'000);
    store.add(tile, "warp", 300'000);
    const auto buf = soc.memory().allocate("b", 1 << 20);
    soc::AccelTask task;
    task.src = buf;
    task.dst = buf + (1 << 19);
    task.items = 1'000;
    auto job = [&]() -> sim::Process {
      for (const char* m : {"debayer", "warp", "debayer"}) {
        sim::SimEvent done(soc.kernel());
        manager.run(tile, m, task, done);
        co_await done.wait();
      }
    };
    job();
    soc.kernel().run();
    benchmark::DoNotOptimize(soc.kernel().events_executed());
  }
}
BENCHMARK(BM_RuntimeReconfigurationSwap);

void BM_WamiGoldenFrame(benchmark::State& state) {
  wami::FrameGenerator gen(wami::SceneOptions{});
  const auto bayer = gen.next_frame();
  wami::GmmState gmm(128, 128);
  wami::AffineParams p{};
  for (auto _ : state) {
    const auto rgb = wami::debayer(bayer);
    const auto gray = wami::grayscale(rgb);
    wami::lucas_kanade_step(gray, gray, p);
    benchmark::DoNotOptimize(wami::change_detection(gray, gmm));
  }
}
BENCHMARK(BM_WamiGoldenFrame);

void BM_WamiChangeDetection(benchmark::State& state) {
  wami::FrameGenerator gen(wami::SceneOptions{});
  const auto frame = wami::grayscale(wami::debayer(gen.next_frame()));
  wami::GmmState gmm(frame.width(), frame.height());
  for (auto _ : state) {
    benchmark::DoNotOptimize(wami::change_detection(frame, gmm));
  }
}
BENCHMARK(BM_WamiChangeDetection);

}  // namespace

int main(int argc, char** argv) {
  presp::set_log_level(presp::LogLevel::kWarn);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
