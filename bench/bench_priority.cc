/**
 * @file
 * Figure 4 — the dynamic instruction selection policy of the
 * instruction schedule units, demonstrated directly: three thread
 * slots (A, B, C) submit an ALU instruction every cycle; the
 * schedule unit grants by rotating multi-level priority. The grant
 * sequence printed here is the figure's pattern.
 */

#include <cstdio>

#include "core/schedule.hh"

using namespace smtsim;

int
main()
{
    constexpr int kSlots = 3;
    constexpr int kRotation = 4;    // rotate priorities every 4 cyc

    ScheduleUnit alu(FuClass::IntAlu, 1, kSlots);
    int top = 0;        // the ring's offset: slot top leads

    std::printf("Figure 4: rotating-priority selection "
                "(3 thread slots, 1 ALU, rotation interval %d)\n\n",
                kRotation);
    std::printf("cycle | priority order | granted\n");
    std::printf("------+----------------+--------\n");

    const char *names = "ABC";
    for (Cycle c = 1; c <= 16; ++c) {
        // Every slot re-submits if its standby station is free
        // (instructions stream in continuously).
        for (int s = 0; s < kSlots; ++s) {
            if (!alu.slotBusy(s)) {
                IssuedOp &op = alu.station(s);
                op = IssuedOp{};
                op.insn.op = Op::ADD;
                op.slot = s;
                op.arrive = c;
                alu.submit(s, top);
            }
        }
        std::printf("%5llu | %c > %c > %c      |",
                    (unsigned long long)c, names[top],
                    names[(top + 1) % kSlots], names[(top + 2) % kSlots]);
        alu.select(c, top, [&](const IssuedOp &op, int) {
            std::printf(" %c", names[op.slot]);
        });
        std::printf("\n");

        if (c % kRotation == 0) {
            top = (top + 1) % kSlots;
            std::printf("      | (rotate: lowest priority to the "
                        "previous top)\n");
        }
    }

    std::printf("\nEvery slot receives the grant while it holds "
                "the highest priority;\nrotation prevents "
                "starvation, as in the paper's Figure 4.\n");
    return 0;
}
