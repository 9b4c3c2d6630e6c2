#include "src/testbed/fault_runner.h"

#include <algorithm>
#include <deque>
#include <memory>

namespace testbed {

void ApplyFaultSchedule(sim::Simulator& simulator, net::Network& network,
                        ServerMachine* server, std::vector<ClientMachine*> clients,
                        const fault::FaultSchedule& schedule) {
  // Times at which the next handler dispatch should take the server down.
  // Shared with the worker hook, which outlives this call.
  auto handler_crashes = std::make_shared<std::deque<sim::Time>>();

  for (const fault::FaultEvent& ev : schedule.events) {
    switch (ev.kind) {
      case fault::FaultEventKind::kCrashServer:
        if (server != nullptr) {
          simulator.ScheduleAt(ev.at, [server, &network] { server->Crash(network); },
                               /*background=*/true);
        }
        break;
      case fault::FaultEventKind::kRebootServer:
        if (server != nullptr) {
          simulator.ScheduleAt(ev.at, [server, &network] { server->Reboot(network); },
                               /*background=*/true);
        }
        break;
      case fault::FaultEventKind::kCrashClient:
        if (ev.client >= 0 && ev.client < static_cast<int>(clients.size())) {
          ClientMachine* client = clients[ev.client];
          simulator.ScheduleAt(ev.at, [client, &network] { client->Crash(network); },
                               /*background=*/true);
        }
        break;
      case fault::FaultEventKind::kRestartClient:
        if (ev.client >= 0 && ev.client < static_cast<int>(clients.size())) {
          ClientMachine* client = clients[ev.client];
          simulator.ScheduleAt(ev.at, [client, &network] { client->Restart(network); },
                               /*background=*/true);
        }
        break;
      case fault::FaultEventKind::kCrashServerInHandler:
        if (server != nullptr) {
          handler_crashes->push_back(ev.at);
        }
        break;
    }
  }

  if (!handler_crashes->empty()) {
    std::sort(handler_crashes->begin(), handler_crashes->end());
    ServerMachine* srv = server;
    net::Network* net = &network;
    srv->peer().set_worker_hook([handler_crashes, srv, net, &simulator] {
      if (handler_crashes->empty() || simulator.Now() < handler_crashes->front()) {
        return;
      }
      handler_crashes->pop_front();
      // Crash via a zero-delay event rather than synchronously: the
      // dispatching worker proceeds into its CPU charge / handler first, so
      // the crash lands while the handler coroutine is in flight.
      simulator.Schedule(0, [srv, net] { srv->Crash(*net); }, /*background=*/true);
    });
  }
}

}  // namespace testbed
