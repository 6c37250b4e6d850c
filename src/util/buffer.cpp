#include "util/buffer.h"

namespace psc::util {

// Out of line on purpose: inlined into copy_of(), GCC 12 reports a false
// -Wfree-nonheap-object on the moved-from temporary's destructor.
detail::BufferBlock* BufferSlice::adopt_block(Bytes&& data) {
  auto* b = new detail::BufferBlock;
  b->data = std::move(data);
  return b;
}

}  // namespace psc::util
