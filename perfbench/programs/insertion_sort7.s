# Insertion sort over 7 symbolic bytes at 0x20000:
# 7! = 5040 feasible paths, one per stable ordering of the input.
# A frozen copy: the benchmark measures exactly this program.
_start:
    li a0, 131072
    li a1, 7
    li a7, 1337
    ecall                   # make_symbolic(buf, length)
    li s0, 131072
    li s1, 7
    li t0, 1                # i
outer:
    bge t0, s1, exit_ok     # concrete
    mv t1, t0               # j
inner:
    beqz t1, next_i         # concrete
    add t2, s0, t1
    lbu t3, -1(t2)          # a[j-1]
    lbu t4, 0(t2)           # a[j]
    bgeu t4, t3, next_i     # symbolic: stop when a[j] >= a[j-1]
    sb t4, -1(t2)
    sb t3, 0(t2)
    addi t1, t1, -1
    j inner
next_i:
    addi t0, t0, 1
    j outer
exit_ok:
    li a7, 93
    li a0, 0
    ecall
