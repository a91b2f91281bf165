#!/usr/bin/env python3
"""Elementary-link timing: what multiplexing does to the waiting game.

Entanglement swapping attempts across a 2 x 60 km link are paced by the
classical round trip, 300 us per shot. With success probability p1 per mode
the expected wait is T_comm / p, and multiplexing raises p from p1 to
1 - (1 - p1)^m. The same geometric series describes a feed-forward retry
loop, which is why the two strategies tie when their per-attempt rates match.
"""
from swpemux import (
    FeedbackConfig,
    LinkConfig,
    avg_entanglement_time,
    communication_time,
    feedback_success,
    p_link_multiplexed,
)

link = LinkConfig()
print(f"link: 2 x {link.l0_km:.0f} km, signal velocity {link.c_fiber_km_s:.0f} km/s")
print(f"communication time per attempt: {communication_time(link):.0f} us")

report = avg_entanglement_time(link)
print(f"\nsingle mode, p1 = {link.p1}:")
print(f"  expected entanglement time {report.t_single_us / 1e3:.0f} ms")
print(f"with m = {link.m} multiplexed modes:")
print(f"  expected entanglement time {report.t_multiplexed_exact_us / 1e3:.2f} ms")
print(f"  speedup {report.speedup_exact:.2f} (linear approximation {report.speedup_linear:.1f})")

print(f"\n{'p1':>8} {'speedup':>9}")
for p1 in (1e-2, 1e-3, 1e-4, 1e-6):
    r = avg_entanglement_time(LinkConfig(p1=p1))
    print(f"{p1:>8.0e} {r.speedup_exact:>9.4f}")
print("rarer successes push the speedup toward the full mode count m = 19")

# retry loop with matched per-attempt probability: provably the same series
fb = FeedbackConfig(eta=0.1, chi=0.01, n_attempts=19)
retries = feedback_success(fb)
train = p_link_multiplexed(fb.eta * fb.chi, fb.n_attempts)
print(f"\nfeed-forward retries vs one multiplexed train at eta*chi = {fb.eta * fb.chi}:")
print(f"  P(success) {retries.p_exact} == {train.exact}: {retries.p_exact == train.exact}")
print(f"  both occupy the memory for {retries.total_time_us:.1f} us")
