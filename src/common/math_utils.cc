#include "common/math_utils.h"

#include "common/logging.h"

namespace dangoron {

int64_t NextPowerOfTwo(int64_t value) {
  DCHECK_GE(value, 1);
  int64_t result = 1;
  while (result < value) {
    result <<= 1;
  }
  return result;
}

}  // namespace dangoron
