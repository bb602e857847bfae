#include "sim/crowd_sim.h"

namespace hta {

size_t SessionResult::questions_total() const {
  size_t total = 0;
  for (const auto& e : events) total += static_cast<size_t>(e.questions);
  return total;
}

size_t SessionResult::questions_correct() const {
  size_t total = 0;
  for (const auto& e : events) total += static_cast<size_t>(e.correct);
  return total;
}

}  // namespace hta
