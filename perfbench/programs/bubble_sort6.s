# Full bubble sort (no early exit) over 6 symbolic bytes at 0x20000:
# 6! = 720 feasible paths, one per stable ordering of the input.
# A frozen copy: the benchmark measures exactly this program.
_start:
    li a0, 131072
    li a1, 6
    li a7, 1337
    ecall                   # make_symbolic(buf, length)
    li s0, 131072           # base
    li s1, 6              # n
    li t0, 0                # i
outer:
    addi t6, s1, -1
    bge t0, t6, exit_ok     # i >= n-1 (concrete)
    li t1, 0                # j
inner:
    sub t5, s1, t0
    addi t5, t5, -1
    bge t1, t5, next_i      # j >= n-1-i (concrete)
    add t2, s0, t1
    lbu t3, 0(t2)           # a[j]
    lbu t4, 1(t2)           # a[j+1]
    bgeu t4, t3, no_swap    # symbolic compare-exchange
    sb t4, 0(t2)
    sb t3, 1(t2)
no_swap:
    addi t1, t1, 1
    j inner
next_i:
    addi t0, t0, 1
    j outer
exit_ok:
    li a7, 93
    li a0, 0
    ecall
