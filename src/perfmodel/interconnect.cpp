#include "interconnect.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace portabench::perfmodel {

EndToEndTime end_to_end_gemm(const GpuMachineModel& model, const Link& link,
                             Precision prec, std::size_t n, std::size_t batches) {
  PB_EXPECTS(n > 0 && batches >= 1);
  EndToEndTime t;
  const double nn = static_cast<double>(n);
  const double in_bytes = 2.0 * nn * nn * static_cast<double>(input_bytes(prec));  // A + B
  const double out_bytes = nn * nn * static_cast<double>(output_bytes(prec));      // C

  t.h2d_s = link.seconds(in_bytes);
  t.d2h_s = link.seconds(out_bytes);
  t.kernel_s = model.reference_time(prec, n).total_s;

  const double b = static_cast<double>(batches);
  t.serial_s = b * (t.h2d_s + t.kernel_s + t.d2h_s);

  // Double-buffered pipeline: steady state is limited by the slowest
  // stage; fill/drain add one leading H2D and one trailing D2H.  On a
  // half-duplex link H2D and D2H share the wire and serialize.
  const double stage_xfer = link.duplex ? std::max(t.h2d_s, t.d2h_s) : t.h2d_s + t.d2h_s;
  const double bottleneck = std::max(t.kernel_s, stage_xfer);
  t.overlapped_s = t.h2d_s + b * bottleneck + t.d2h_s;
  // Pipelining can never lose to the serial schedule.
  t.overlapped_s = std::min(t.overlapped_s, t.serial_s);
  return t;
}

}  // namespace portabench::perfmodel
