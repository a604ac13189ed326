# Base64 encoder over 4 symbolic bytes at 0x20000 with a table-free
# alphabet: every 6-bit group is classified by the chain c < 26 / c < 52 /
# c < 62 / c == 62 / else, giving 5^4 * 5 * 2 = 6250 feasible paths.
# A frozen copy: the benchmark measures exactly this program.
_start:
    li a0, 131072
    li a1, 4
    li a7, 1337
    ecall                   # make_symbolic(buf, length)
    li s0, 131072           # in
    li s1, 4              # len
    li s2, 131328        # out
    li s3, 0                # consumed
group:
    sub t0, s1, s3
    beqz t0, exit_ok        # all input consumed (concrete)
    li t1, 3
    bltu t0, t1, tail       # partial group? (concrete)
    # full 3-byte group
    add t2, s0, s3
    lbu a1, 0(t2)
    lbu a2, 1(t2)
    lbu a3, 2(t2)
    srli a0, a1, 2          # c0 = b0 >> 2
    jal ra, classify
    andi a0, a1, 3
    slli a0, a0, 4
    srli t3, a2, 4
    or a0, a0, t3           # c1 = (b0&3)<<4 | b1>>4
    jal ra, classify
    andi a0, a2, 15
    slli a0, a0, 2
    srli t3, a3, 6
    or a0, a0, t3           # c2 = (b1&15)<<2 | b2>>6
    jal ra, classify
    andi a0, a3, 63         # c3 = b2 & 63
    jal ra, classify
    addi s3, s3, 3
    j group
tail:
    add t2, s0, s3
    lbu a1, 0(t2)
    srli a0, a1, 2          # c0 = b >> 2
    jal ra, classify
    li t1, 1
    beq t0, t1, tail1       # concrete: 1 or 2 bytes left
    # two bytes left
    lbu a2, 1(t2)
    andi a0, a1, 3
    slli a0, a0, 4
    srli t3, a2, 4
    or a0, a0, t3
    jal ra, classify
    andi a0, a2, 15
    slli a0, a0, 2          # c2 = (b1&15)<<2
    jal ra, classify
    li a0, '='
    jal ra, emit
    j exit_ok
tail1:
    andi a0, a1, 3
    slli a0, a0, 4          # c1 = (b&3)<<4
    jal ra, classify
    li a0, '='
    jal ra, emit
    li a0, '='
    jal ra, emit
    j exit_ok

# classify(a0: 6-bit group) -> emit alphabet character
classify:
    li t4, 26
    bgeu a0, t4, cls_lower  # symbolic
    addi a0, a0, 'A'
    j emit
cls_lower:
    li t4, 52
    bgeu a0, t4, cls_digit  # symbolic
    addi a0, a0, 71         # 'a' - 26
    j emit
cls_digit:
    li t4, 62
    bgeu a0, t4, cls_plus   # symbolic
    addi a0, a0, -4         # '0' - 52
    j emit
cls_plus:
    li t4, 62
    bne a0, t4, cls_slash   # symbolic
    li a0, '+'
    j emit
cls_slash:
    li a0, '/'
emit:
    sb a0, 0(s2)
    addi s2, s2, 1
    ret
exit_ok:
    li a7, 93
    li a0, 0
    ecall
