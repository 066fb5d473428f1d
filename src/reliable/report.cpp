#include "reliable/report.hpp"

#include <sstream>

namespace hybridcnn::reliable {

std::string ExecutionReport::summary() const {
  std::ostringstream os;
  os << (stage.empty() ? "kernel" : stage) << " [" << scheme << "] "
     << (ok ? "OK" : "FAILED") << ": ops=" << logical_ops
     << " detected=" << detected_errors << " retries=" << retries
     << " corrected=" << corrected_errors << " bucket_peak=" << bucket_peak;
  if (bucket_exhausted) os << " (bucket exhausted)";
  if (failed_op_index >= 0) os << " failed_at=" << failed_op_index;
  return os.str();
}

}  // namespace hybridcnn::reliable
