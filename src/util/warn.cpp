#include "util/warn.hpp"

#include <atomic>
#include <cstdio>
#include <mutex>
#include <utility>

namespace massf {
namespace {

std::mutex g_mu;
std::vector<EngineWarning> g_warnings;
std::size_t g_count = 0;

}  // namespace

WarningLog& WarningLog::instance() {
  static WarningLog log;
  return log;
}

void WarningLog::emit(ErrorCategory category, std::string message) {
  std::fprintf(stderr, "massf: warning (%s): %s\n",
               error_category_name(category), message.c_str());
  std::lock_guard<std::mutex> lk(g_mu);
  ++g_count;
  if (g_warnings.size() < kMaxKept) {
    g_warnings.push_back(EngineWarning{category, std::move(message)});
  }
}

std::vector<EngineWarning> WarningLog::snapshot() const {
  std::lock_guard<std::mutex> lk(g_mu);
  return g_warnings;
}

std::size_t WarningLog::count() const {
  std::lock_guard<std::mutex> lk(g_mu);
  return g_count;
}

void WarningLog::clear() {
  std::lock_guard<std::mutex> lk(g_mu);
  g_warnings.clear();
  g_count = 0;
}

void warn(ErrorCategory category, std::string message) {
  WarningLog::instance().emit(category, std::move(message));
}

bool warn_unknown_host_concurrency(unsigned cpus) {
  if (cpus != 0) return false;
  static std::atomic<bool> warned{false};
  if (warned.exchange(true, std::memory_order_relaxed)) return false;
  warn(ErrorCategory::kConfig,
       "hardware_concurrency() == 0: host parallelism is unreportable, "
       "spin budgets are disabled and channel-sync stalls yield at once "
       "(pdes/channel_sync.cpp)");
  return true;
}

}  // namespace massf
