# INT64_MIN / -1: the one quotient that does not fit in 64 bits. It
# wraps to INT64_MIN (r3), as add and mul wrap, on every engine.
# Run with: asm_runner --file examples/programs/div_overflow.s
B0:
    li r1, 1
    shli r1, r1, 63     # INT64_MIN
    li r2, 0
    addi r2, r2, -1     # -1
    div r3, r1, r2
    halt
