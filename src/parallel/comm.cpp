#include "parallel/comm.hpp"

#include <exception>
#include <thread>
#include <vector>

#include "net/inproc.hpp"

namespace scmd {

void run_cluster(int num_ranks, const std::function<void(Comm&)>& fn) {
  Cluster cluster(num_ranks);
  std::vector<std::thread> threads;
  std::vector<std::exception_ptr> errors(
      static_cast<std::size_t>(num_ranks));
  threads.reserve(static_cast<std::size_t>(num_ranks));
  for (int r = 0; r < num_ranks; ++r) {
    threads.emplace_back([&, r] {
      try {
        Comm comm(cluster.transport(r));
        fn(comm);
      } catch (...) {
        errors[static_cast<std::size_t>(r)] = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace scmd
