#include "core/motivation.h"

namespace hta {

double SetDiversity(const TaskBundle& bundle, const TaskDistanceOracle& d) {
  double total = 0.0;
  for (size_t k = 0; k < bundle.size(); ++k) {
    for (size_t l = k + 1; l < bundle.size(); ++l) {
      total += d(bundle[k], bundle[l]);
    }
  }
  return total;
}

}  // namespace hta
