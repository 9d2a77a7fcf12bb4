// Fixture: TSAUG_CHECK_OK is an abort like any other check. A data-path
// file (src/nn/) not in CHECK_BUDGET that asserts on a returned Status
// turns a recoverable failure back into a crash — budget 0, reported.
#include "core/status.h"

tsaug::core::Status Step();

void Train() {
  TSAUG_CHECK_OK(Step());  // line 9: should propagate the Status
}
