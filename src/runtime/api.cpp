#include "runtime/api.hpp"

#include "soc/tiles.hpp"
#include "util/error.hpp"

namespace presp::runtime {

sim::Process BareMetalDriver::run(int tile, std::string module,
                                  soc::AccelTask task,
                                  sim::SimEvent& done) {
  auto& kernel = soc_.kernel();
  auto& cpu = soc_.cpu();

  if (soc_.reconf_tile(tile).module() != module) {
    const BitstreamImage& image = store_.get(tile, module);
    co_await cpu.write_reg(tile, soc::kRegDecouple, 1);
    const int aux = soc_.aux_tile_index();
    co_await cpu.write_reg(aux, soc::kRegDfxcBsAddr, image.address);
    co_await cpu.write_reg(aux, soc::kRegDfxcBsBytes, image.bytes);
    co_await cpu.write_reg(aux, soc::kRegDfxcTarget,
                           static_cast<std::uint64_t>(tile));
    co_await cpu.write_reg(aux, soc::kRegDfxcTrigger, 1);
    // Busy-poll the controller status.
    while (true) {
      ++stats_.polls;
      const std::uint64_t status =
          co_await cpu.read_reg(aux, soc::kRegDfxcStatus);
      if (status == 0) break;
      co_await sim::Delay(kernel, static_cast<sim::Time>(poll_interval_));
    }
    co_await cpu.write_reg(tile, soc::kRegDecouple, 0);
    // Drain the completion interrupt nobody handles in bare-metal mode.
    if (!cpu.irq_from(aux).empty())
      (void)co_await cpu.irq_from(aux).receive();
    ++stats_.reconfigurations;
  }

  co_await cpu.write_reg(tile, soc::kRegSrc, task.src);
  co_await cpu.write_reg(tile, soc::kRegDst, task.dst);
  co_await cpu.write_reg(tile, soc::kRegItems,
                         static_cast<std::uint64_t>(task.items));
  co_await cpu.write_reg(tile, soc::kRegAuxArg, task.aux);
  co_await cpu.write_reg(tile, soc::kRegCmd, 1);
  while (true) {
    ++stats_.polls;
    const std::uint64_t status =
        co_await cpu.read_reg(tile, soc::kRegStatus);
    if (status == soc::kStatusDone) break;
    co_await sim::Delay(kernel, static_cast<sim::Time>(poll_interval_));
  }
  if (!cpu.irq_from(tile).empty())
    (void)co_await cpu.irq_from(tile).receive();
  ++stats_.runs;
  done.trigger();
}

}  // namespace presp::runtime
