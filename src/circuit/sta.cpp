#include "src/circuit/sta.hpp"

#include <algorithm>
#include <cassert>
#include <optional>
#include <sstream>

#include "src/obs/obs.hpp"

namespace lore::circuit {
namespace {

/// The STA instruments, resolved on first use: run() sits inside aging
/// sweeps and timing-fault campaigns, so a registry lookup by name per run
/// would take the registry mutex on every call.
obs::Counter& runs_counter() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter("sta.runs");
  return c;
}
obs::Counter& arc_evaluations_counter() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter("sta.arc_evaluations");
  return c;
}
obs::Histogram& run_us_histogram() {
  static obs::Histogram& h = obs::MetricsRegistry::global().histogram("sta.run_us");
  return h;
}

}  // namespace

device::StageTiming LibraryDelayModel::arc_timing(const Netlist& nl, std::size_t instance,
                                                  std::size_t pin, double in_slew_ps,
                                                  double load_ff) const {
  const auto& cell = nl.library().cell(nl.instance(instance).cell_id);
  assert(pin < cell.arcs.size() && "cell not characterized");
  const auto& arc = cell.arcs[pin];
  device::StageTiming t;
  const double rise = arc.rise_delay.lookup(in_slew_ps, load_ff);
  const double fall = arc.fall_delay.lookup(in_slew_ps, load_ff);
  if (rise >= fall) {
    t.delay_ps = rise * scale_;
    t.out_slew_ps = arc.rise_slew.lookup(in_slew_ps, load_ff);
  } else {
    t.delay_ps = fall * scale_;
    t.out_slew_ps = arc.fall_slew.lookup(in_slew_ps, load_ff);
  }
  return t;
}

device::StageTiming InstanceTableDelayModel::arc_timing(const Netlist& nl,
                                                        std::size_t instance,
                                                        std::size_t pin, double in_slew_ps,
                                                        double load_ff) const {
  (void)nl;
  assert(instance < tables_.size());
  assert(pin < tables_[instance].arcs.size());
  const auto& arc = tables_[instance].arcs[pin];
  device::StageTiming t;
  const double rise = arc.rise_delay.lookup(in_slew_ps, load_ff);
  const double fall = arc.fall_delay.lookup(in_slew_ps, load_ff);
  if (rise >= fall) {
    t.delay_ps = rise;
    t.out_slew_ps = arc.rise_slew.lookup(in_slew_ps, load_ff);
  } else {
    t.delay_ps = fall;
    t.out_slew_ps = arc.fall_slew.lookup(in_slew_ps, load_ff);
  }
  return t;
}

StaResult StaEngine::run(const Netlist& nl, const DelayModel& delays) const {
  LORE_OBS_SPAN(span, "circuit.sta.run");
  const bool metrics = obs::kCompiledIn && obs::enabled();
  std::optional<obs::ScopedTimer> timer;
  if (metrics) timer.emplace(run_us_histogram());
  // Arc evaluations are tallied locally and added once at the end, so the
  // exported counter is a deterministic function of the netlist.
  std::size_t arc_evaluations = 0;
  StaResult r;
  r.net_timing.assign(nl.num_nets(), NetTiming{});
  r.instance_delay_ps.assign(nl.num_instances(), 0.0);
  r.instance_in_slew_ps.assign(nl.num_instances(), cfg_.primary_input_slew_ps);
  r.instance_load_ff.assign(nl.num_instances(), 0.0);
  std::vector<int> worst_fanin(nl.num_instances(), -1);  // driving instance on worst path

  for (auto pi : nl.primary_inputs()) {
    r.net_timing[pi].arrival_ps = 0.0;
    r.net_timing[pi].slew_ps = cfg_.primary_input_slew_ps;
  }

  const auto order = nl.topological_order();
  for (auto inst_id : order) {
    const auto& inst = nl.instance(inst_id);
    const auto& cell = nl.library().cell(inst.cell_id);
    double load = nl.net_load_ff(inst.output_net);
    if (nl.net(inst.output_net).sinks.empty()) load += cfg_.primary_output_load_ff;
    r.instance_load_ff[inst_id] = load;

    double out_arrival = 0.0, out_slew = cfg_.primary_input_slew_ps;
    double worst_delay = 0.0, worst_in_slew = cfg_.primary_input_slew_ps;
    int worst_src = -1;

    if (cell.is_sequential()) {
      // Launch from the clock edge: CLK->Q delay at the D-pin slew.
      const double in_slew = cfg_.primary_input_slew_ps;
      ++arc_evaluations;
      const auto t = delays.arc_timing(nl, inst_id, 0, in_slew, load);
      out_arrival = t.delay_ps;
      out_slew = t.out_slew_ps;
      worst_delay = t.delay_ps;
      worst_in_slew = in_slew;
    } else {
      for (std::size_t pin = 0; pin < inst.input_nets.size(); ++pin) {
        const auto& in_net = r.net_timing[inst.input_nets[pin]];
        ++arc_evaluations;
        const auto t = delays.arc_timing(nl, inst_id, pin, in_net.slew_ps, load);
        const double arrival = in_net.arrival_ps + t.delay_ps;
        if (arrival >= out_arrival) {
          out_arrival = arrival;
          out_slew = t.out_slew_ps;
          worst_delay = t.delay_ps;
          worst_in_slew = in_net.slew_ps;
          worst_src = nl.net(inst.input_nets[pin]).driver_instance;
        }
      }
    }
    r.net_timing[inst.output_net] = {out_arrival, out_slew};
    r.instance_delay_ps[inst_id] = worst_delay;
    r.instance_in_slew_ps[inst_id] = worst_in_slew;
    worst_fanin[inst_id] = worst_src;
  }

  // Timing endpoints: primary outputs and DFF D-pins.
  int endpoint_inst = -1;
  double endpoint_arrival = 0.0;
  auto consider = [&](std::size_t net) {
    const double a = r.net_timing[net].arrival_ps;
    if (a >= endpoint_arrival) {
      endpoint_arrival = a;
      endpoint_inst = nl.net(net).driver_instance;
    }
  };
  for (auto po : nl.primary_outputs()) consider(po);
  for (std::size_t i = 0; i < nl.num_instances(); ++i) {
    const auto& inst = nl.instance(i);
    if (nl.library().cell(inst.cell_id).is_sequential())
      for (auto net : inst.input_nets) consider(net);
  }
  r.worst_arrival_ps = endpoint_arrival;

  // Trace the critical path back through worst fan-ins.
  for (int cur = endpoint_inst; cur >= 0; cur = worst_fanin[static_cast<std::size_t>(cur)]) {
    r.critical_path.push_back(static_cast<std::size_t>(cur));
    if (nl.library().cell(nl.instance(static_cast<std::size_t>(cur)).cell_id).is_sequential())
      break;  // launched from a register: path starts here
  }
  std::reverse(r.critical_path.begin(), r.critical_path.end());
  if (metrics) {
    runs_counter().add(1);
    arc_evaluations_counter().add(arc_evaluations);
  }
  return r;
}

std::string write_sdf(const Netlist& nl, const std::vector<double>& values,
                      const std::string& value_label) {
  assert(values.size() == nl.num_instances());
  std::ostringstream os;
  os << "(DELAYFILE\n  (SDFVERSION \"3.0\")\n  (DESIGN \"lore\")\n"
     << "  (VALUETYPE \"" << value_label << "\")\n";
  os.precision(6);
  for (std::size_t i = 0; i < nl.num_instances(); ++i) {
    const auto& inst = nl.instance(i);
    os << "  (CELL (CELLTYPE \"" << nl.library().cell(inst.cell_id).name << "\")"
       << " (INSTANCE " << inst.name << ")"
       << " (DELAY (ABSOLUTE (IOPATH * * (" << values[i] << ")))))\n";
  }
  os << ")\n";
  return os.str();
}

}  // namespace lore::circuit
