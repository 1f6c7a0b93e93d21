// Differential fuzz entry for the executors' task queue
// (sim/task_queue.hpp). A SimExecutor runs side by side with a
// std::multimap keyed by (when, seq) — the order the queue promises — via
// the model the seeded property test uses (tests/task_queue_model.hpp).
// Any disagreement in run order, clock, pending count or executed count
// aborts.
//
// Input: a sequence of records `u8 op, u8 arg`; `op & 7` picks the action:
//   0, 1, 2 — schedule a task `arg % 4` ms from now; bits 3-4 of `op` make
//             it cancel another live task when it runs and/or schedule a
//             new task from its destructor;
//   3       — cancel the live task `arg` selects;
//   4       — cancel a stale or never-issued id (`op, arg` pick it);
//   5, 6    — step();
//   7       — run_until(now + `arg % 3` ms).
// A truncated record ends the input.
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "task_queue_model.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  amuse::model::TaskQueueModel m([](const std::string& what) {
    std::fprintf(stderr, "fuzz_task_queue: %s\n", what.c_str());
    std::abort();
  });
  for (std::size_t i = 0; i + 1 < size; i += 2) {
    std::uint8_t op = data[i];
    std::uint8_t arg = data[i + 1];
    switch (op & 7) {
      case 0:
      case 1:
      case 2:
        m.schedule(arg % 4u, static_cast<std::uint8_t>((op >> 3) & 3));
        break;
      case 3:
        m.cancel_live(arg);
        break;
      case 4:
        m.cancel_stale(static_cast<std::uint32_t>(op) << 8 | arg);
        break;
      case 5:
      case 6:
        m.step();
        break;
      default:
        m.run_until(arg % 3u);
        break;
    }
    m.check();
  }
  return 0;
}
