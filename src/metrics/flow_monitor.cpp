#include "metrics/flow_monitor.hpp"

namespace elephant::metrics {

void FlowMonitor::watch(const tcp::Flow& flow, std::string label) {
  if (label.empty()) {
    label = std::string(flow.sender().cc().name()) + "-" + std::to_string(flow.id());
  }
  series_.push_back(Series{&flow, std::move(label), {}});
  last_delivered_bytes_.push_back(0);
}

void FlowMonitor::sample(sim::Time now) {
  const double elapsed_s = (now - last_sample_).sec();
  last_sample_ = now;
  for (std::size_t i = 0; i < series_.size(); ++i) {
    const tcp::Flow& f = *series_[i].flow;
    FlowSample s;
    s.t = now;
    s.cwnd_segments = f.sender().cc().cwnd_segments();
    s.pipe_segments = f.sender().pipe_segments();
    s.srtt_ms = f.sender().rtt().srtt().ms();
    s.pacing_bps = f.sender().cc().pacing_rate_bps();
    const auto delivered = static_cast<double>(f.receiver().delivered_bytes());
    s.goodput_bps =
        elapsed_s > 0 ? (delivered - last_delivered_bytes_[i]) * 8.0 / elapsed_s : 0.0;
    last_delivered_bytes_[i] = delivered;
    s.retx_units = f.sender().stats().retx_units;
    s.rtos = f.sender().stats().rtos;
    series_[i].samples.push_back(s);
  }
}

void FlowMonitor::write_csv(std::ostream& out) const {
  out << "label,flow,t_s,cwnd_segments,pipe_segments,srtt_ms,pacing_bps,goodput_bps,"
         "retx_units,rtos\n";
  for (const Series& s : series_) {
    for (const FlowSample& p : s.samples) {
      out << s.label << ',' << s.flow->id() << ',' << p.t.sec() << ',' << p.cwnd_segments
          << ',' << p.pipe_segments << ',' << p.srtt_ms << ',' << p.pacing_bps << ','
          << p.goodput_bps << ',' << p.retx_units << ',' << p.rtos << '\n';
    }
  }
}

}  // namespace elephant::metrics
