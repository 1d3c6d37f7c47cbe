#include "util/cancel.hpp"

namespace mnemo::util {

Error CancelToken::deadline_error() {
  Error e;
  e.code = ErrorCode::kDeadlineExceeded;
  e.message = "deadline exceeded";
  return e;
}

void CancelToken::cancel(Error reason) {
  MNEMO_EXPECTS(reason.code != ErrorCode::kOk);
  std::vector<std::function<void()>> run;
  {
    std::lock_guard lock(mu_);
    if (flagged_) return;  // first reason wins
    flagged_ = true;
    reason_ = std::move(reason);
    run.swap(callbacks_);
  }
  for (std::function<void()>& fn : run) fn();
}

bool CancelToken::canceled() const {
  std::lock_guard lock(mu_);
  return flagged_ || deadline_.expired();
}

Error CancelToken::reason() const {
  std::lock_guard lock(mu_);
  if (flagged_) return reason_;
  if (deadline_.expired()) return deadline_error();
  return Error{};
}

void CancelToken::on_cancel(std::function<void()> fn) {
  {
    std::lock_guard lock(mu_);
    if (!flagged_) {
      callbacks_.push_back(std::move(fn));
      return;
    }
  }
  fn();
}

}  // namespace mnemo::util
