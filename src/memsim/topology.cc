#include "memsim/topology.h"

#include <algorithm>

namespace omega::memsim {

int Topology::WorkersPerSocket(int total_workers) const {
  const int sockets = config_.num_sockets;
  return (total_workers + sockets - 1) / sockets;
}

int Topology::SocketOfWorker(int worker, int total_workers) const {
  if (total_workers <= 0) return 0;
  worker = std::clamp(worker, 0, total_workers - 1);
  return std::min(worker / WorkersPerSocket(total_workers),
                  config_.num_sockets - 1);
}

int Topology::ThreadsOnSocket(int socket, int total_workers) const {
  if (total_workers <= 0) return 0;
  const int per_socket = WorkersPerSocket(total_workers);
  const int begin = socket * per_socket;
  return std::clamp(total_workers - begin, 0, per_socket);
}

int Topology::IndexOnSocket(int worker, int total_workers) const {
  return worker -
         SocketOfWorker(worker, total_workers) * WorkersPerSocket(total_workers);
}

}  // namespace omega::memsim
