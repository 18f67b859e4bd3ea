"""A structural netlist builder with word-level helpers.

Emits gates from the base cells (INV/AND/OR/XOR/MUX/NAND/NOR) of the
OSU-like library; the benchmark driver then runs ``synthesize()`` over
the result so the "original design" is a properly mapped, optimized
netlist, as the paper assumes ("C_all was already optimized by one or
more iterations of a standard IC design flow").
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.netlist.circuit import CONST0, CONST1, Circuit


class NetBuilder:
    """Builds a :class:`Circuit` through boolean / word-level operations.

    All methods take and return net names.  Two-input operations emit one
    gate each; word helpers compose them.  Constants are the reserved
    nets ``CONST0``/``CONST1``.
    """

    ZERO = CONST0
    ONE = CONST1

    def __init__(self, name: str):
        self.circuit = Circuit(name)
        self._uid = 0
        self._outputs: List[str] = []

    # ------------------------------------------------------------------
    def input(self, name: str) -> str:
        return self.circuit.add_input(name)

    def inputs(self, prefix: str, n: int) -> List[str]:
        return [self.input(f"{prefix}{i}") for i in range(n)]

    def output(self, net: str, name: Optional[str] = None) -> str:
        """Mark *net* as a primary output (buffering pass-throughs)."""
        if name is not None and name != net:
            net = self._gate("BUFX2", {"A": net}, out=name)
        elif net in (CONST0, CONST1) or net in self.circuit.inputs:
            net = self._gate("BUFX2", {"A": net})
        if net in self._outputs:
            net = self._gate("BUFX2", {"A": net})
        self._outputs.append(net)
        return net

    def outputs(self, nets: Sequence[str], prefix: str) -> List[str]:
        return [
            self.output(net, f"{prefix}{i}") for i, net in enumerate(nets)
        ]

    def build(self) -> Circuit:
        self.circuit.set_outputs(self._outputs)
        self.circuit.validate()
        return self.circuit

    # ------------------------------------------------------------------
    def _gate(self, cell: str, pins: dict, out: Optional[str] = None) -> str:
        self._uid += 1
        out = out or f"n{self._uid}"
        self.circuit.add_gate(f"b{self._uid}", cell, pins, out)
        return out

    def not_(self, a: str) -> str:
        if a == CONST0:
            return CONST1
        if a == CONST1:
            return CONST0
        return self._gate("INVX1", {"A": a})

    def and_(self, a: str, b: str) -> str:
        if CONST0 in (a, b):
            return CONST0
        if a == CONST1:
            return b
        if b == CONST1:
            return a
        return self._gate("AND2X1", {"A": a, "B": b})

    def or_(self, a: str, b: str) -> str:
        if CONST1 in (a, b):
            return CONST1
        if a == CONST0:
            return b
        if b == CONST0:
            return a
        return self._gate("OR2X1", {"A": a, "B": b})

    def xor_(self, a: str, b: str) -> str:
        if a == CONST0:
            return b
        if b == CONST0:
            return a
        if a == CONST1:
            return self.not_(b)
        if b == CONST1:
            return self.not_(a)
        return self._gate("XOR2X1", {"A": a, "B": b})

    def xnor_(self, a: str, b: str) -> str:
        return self.not_(self.xor_(a, b))

    def mux(self, sel: str, when1: str, when0: str) -> str:
        """``sel ? when1 : when0`` (constant data folds to plain gates)."""
        if when1 == when0:
            return when1
        if sel == CONST0:
            return when0
        if sel == CONST1:
            return when1
        if when1 == CONST1 and when0 == CONST0:
            return sel
        if when1 == CONST0 and when0 == CONST1:
            return self.not_(sel)
        if when1 == CONST0:
            return self.and_(self.not_(sel), when0)
        if when1 == CONST1:
            return self.or_(sel, when0)
        if when0 == CONST0:
            return self.and_(sel, when1)
        if when0 == CONST1:
            return self.or_(self.not_(sel), when1)
        return self._gate("MUX2X1", {"A": when0, "B": when1, "S": sel})

    # ------------------------------------------------------------------
    # Word-level helpers (little-endian bit lists)
    # ------------------------------------------------------------------
    def and_word(self, a: Sequence[str], b: Sequence[str]) -> List[str]:
        return [self.and_(x, y) for x, y in zip(a, b)]

    def or_word(self, a: Sequence[str], b: Sequence[str]) -> List[str]:
        return [self.or_(x, y) for x, y in zip(a, b)]

    def xor_word(self, a: Sequence[str], b: Sequence[str]) -> List[str]:
        return [self.xor_(x, y) for x, y in zip(a, b)]

    def not_word(self, a: Sequence[str]) -> List[str]:
        return [self.not_(x) for x in a]

    def mux_word(
        self, sel: str, when1: Sequence[str], when0: Sequence[str]
    ) -> List[str]:
        return [self.mux(sel, x, y) for x, y in zip(when1, when0)]

    def constant_word(self, value: int, bits: int) -> List[str]:
        return [
            CONST1 if (value >> i) & 1 else CONST0 for i in range(bits)
        ]

    def full_adder(self, a: str, b: str, cin: str) -> Tuple[str, str]:
        s1 = self.xor_(a, b)
        total = self.xor_(s1, cin)
        carry = self.or_(self.and_(a, b), self.and_(s1, cin))
        return total, carry

    def adder(
        self, a: Sequence[str], b: Sequence[str], cin: str = CONST0
    ) -> Tuple[List[str], str]:
        """Ripple-carry adder; returns (sum bits, carry out)."""
        total, carries = self.adder_with_carries(a, b, cin)
        return total, carries[-1]

    def adder_with_carries(
        self, a: Sequence[str], b: Sequence[str], cin: str = CONST0
    ) -> Tuple[List[str], List[str]]:
        """Ripple-carry adder exposing every carry (for parity predict)."""
        total: List[str] = []
        carries: List[str] = []
        carry = cin
        for x, y in zip(a, b):
            s, carry = self.full_adder(x, y, carry)
            total.append(s)
            carries.append(carry)
        return total, carries

    def subtractor(
        self, a: Sequence[str], b: Sequence[str]
    ) -> Tuple[List[str], str]:
        """a - b in two's complement; returns (difference, borrow-free)."""
        return self.adder(a, self.not_word(b), cin=CONST1)

    def equals(self, a: Sequence[str], b: Sequence[str]) -> str:
        bits = [self.xnor_(x, y) for x, y in zip(a, b)]
        return self.reduce_and(bits)

    def less_than(self, a: Sequence[str], b: Sequence[str]) -> str:
        """Unsigned a < b."""
        lt = CONST0
        for x, y in zip(a, b):  # LSB to MSB; MSB decision dominates
            bit_lt = self.and_(self.not_(x), y)
            bit_eq = self.xnor_(x, y)
            lt = self.or_(bit_lt, self.and_(bit_eq, lt))
        return lt

    def reduce_and(self, bits: Sequence[str]) -> str:
        return self._reduce(self.and_, bits, CONST1)

    def reduce_or(self, bits: Sequence[str]) -> str:
        return self._reduce(self.or_, bits, CONST0)

    def reduce_xor(self, bits: Sequence[str]) -> str:
        return self._reduce(self.xor_, bits, CONST0)

    def _reduce(self, op, bits: Sequence[str], empty: str) -> str:
        items = list(bits)
        if not items:
            return empty
        while len(items) > 1:  # balanced tree
            nxt = [
                op(items[i], items[i + 1])
                for i in range(0, len(items) - 1, 2)
            ]
            if len(items) % 2:
                nxt.append(items[-1])
            items = nxt
        return items[0]

    def decoder(self, sel: Sequence[str]) -> List[str]:
        """n-bit select -> 2^n one-hot lines."""
        lines = [CONST1]
        for s in sel:
            ns = self.not_(s)
            lines = [self.and_(line, ns) for line in lines] + [
                self.and_(line, s) for line in lines
            ]
        return lines

    def priority_encoder(self, requests: Sequence[str]) -> List[str]:
        """One-hot grant to the lowest-index asserted request."""
        grants: List[str] = []
        none_before = CONST1
        for req in requests:
            grants.append(self.and_(req, none_before))
            none_before = self.and_(none_before, self.not_(req))
        return grants

    def onehot_mux_word(
        self, selects: Sequence[str], words: Sequence[Sequence[str]]
    ) -> List[str]:
        """OR of AND-gated words under one-hot selects."""
        width = len(words[0])
        out: List[str] = []
        for bit in range(width):
            terms = [
                self.and_(sel, word[bit])
                for sel, word in zip(selects, words)
            ]
            out.append(self.reduce_or(terms))
        return out

    def shift_left(
        self, word: Sequence[str], amount: Sequence[str]
    ) -> List[str]:
        """Barrel shifter: logical left shift by a bounded amount."""
        cur = list(word)
        for k, sel in enumerate(amount):
            shift = 1 << k
            shifted = [CONST0] * min(shift, len(cur)) + list(cur[:-shift])
            shifted = shifted[:len(cur)]
            cur = self.mux_word(sel, shifted, cur)
        return cur

    def shift_right(
        self, word: Sequence[str], amount: Sequence[str]
    ) -> List[str]:
        cur = list(word)
        for k, sel in enumerate(amount):
            shift = 1 << k
            shifted = list(cur[shift:]) + [CONST0] * min(shift, len(cur))
            shifted = shifted[:len(cur)]
            cur = self.mux_word(sel, shifted, cur)
        return cur

    # ------------------------------------------------------------------
    # Checker / error-handling structures (sources of block-level
    # undetectable faults, as in real designs with parity prediction)
    # ------------------------------------------------------------------
    def linear_parity(self, bits: Sequence[str]) -> str:
        """XOR fold in linear order (structurally unlike the balanced
        tree of :meth:`reduce_xor`, so duplicate parities don't merge)."""
        acc = CONST0
        for bit in bits:
            acc = self.xor_(acc, bit)
        return acc

    def adder_parity_check(
        self,
        a: Sequence[str],
        b: Sequence[str],
        total: Sequence[str],
        carries: Sequence[str],
        cin: str = CONST0,
        width: int = 5,
        lo: int = 0,
    ) -> str:
        """Adder parity predictor: s_i = a_i ^ b_i ^ c_{i-1}, so
        parity(s) ^ parity(a) ^ parity(b) ^ parity(c_in-vector) == 0 over
        any low slice of the adder.  The returned error signal is
        constant 0 in fault-free operation but not structurally provable
        so, exactly like real parity prediction logic.

        The check covers *width* bits starting at bit *lo* (byte/nibble
        parity, as real datapaths do): wide XOR identities are also
        hostile to CDCL reasoning, so narrow slices keep undetectability
        proofs cheap while preserving the redundancy structure.  Distinct
        slices give *independent* checkers whose error-handling cones form
        separate undetectable-fault clusters.
        """
        hi = min(lo + width, len(total))
        lo = max(0, min(lo, hi - 2))
        cin_vec = ([cin] + list(carries[:-1]))[lo:hi]
        predicted = self.xor_(
            self.xor_(
                self.linear_parity(a[lo:hi]), self.linear_parity(b[lo:hi])
            ),
            self.linear_parity(cin_vec),
        )
        actual = self.reduce_xor(total[lo:hi])
        return self.xor_(actual, predicted)

    def onehot_violation(self, lines: Sequence[str]) -> str:
        """Error signal: more than one of *lines* asserted.

        Fault-free priority-encoder grants are one-hot, so this is
        constant 0 in operation; pairs whose combined support is small
        enough to be proven constant are optimized away by synthesis,
        the remaining ones form the surviving checker."""
        terms = [
            self.and_(lines[i], lines[j])
            for i in range(len(lines))
            for j in range(i + 1, len(lines))
        ]
        return self.reduce_or(terms)

    def guard_word(
        self, err: str, word: Sequence[str], salt: int = 2
    ) -> List[str]:
        """Error-handling output stage: when *err* rises, switch the
        word to a dedicated safe pattern.  Because *err* never rises in
        the fault-free circuit, the fallback cone is unobservable — the
        realistic source of clustered undetectable faults the paper
        studies."""
        w = len(word)
        fallback = [
            self.xnor_(word[i], word[(i + salt) % w]) for i in range(w)
        ]
        return self.mux_word(err, fallback, word)

    def lookup(self, addr: Sequence[str], table: Sequence[int],
               out_bits: int) -> List[str]:
        """ROM lookup: mux tree over *table* entries (LSB-first address)."""
        if len(table) != 1 << len(addr):
            raise ValueError("table size must be 2**len(addr)")
        words = [self.constant_word(v, out_bits) for v in table]
        for sel in addr:
            words = [
                self.mux_word(sel, words[i + 1], words[i])
                for i in range(0, len(words), 2)
            ]
        return words[0]
