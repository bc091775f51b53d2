"""Exact arithmetic for GF(q), q = p^e a prime power, with q <= 2**16.

An element of GF(p^e) is encoded as an integer in [0, q): the integer
a0 + a1*p + ... + a_{e-1}*p^(e-1) stands for the coefficient vector
(a0, ..., a_{e-1}) of a residue-class polynomial modulo the context's
irreducible modulus.  The encoding gives canonical equality/hashing and
is the wire format used everywhere (JSON, CLI, CSV).

Multiplication goes through log/antilog tables built once per context
from the e x e GF(p) matrix of "multiply by the generator" acting on the
base-p digit vectors of the encodings.  Addition is XOR in characteristic
2 and a read of Zech logarithms in odd characteristic: with generator g,
a + b = a (1 + b/a) = g^(log a + Z[log b - log a]), where Z[k] = log(1 + g^k),
from the same log/exp tables.  The array rules of a prime field add mod p,
one numpy operation where Zech takes several gathers.  A field of 3 to
ARRAY_TABLE_LIMIT elements also builds, on first use, q x q tables of
those rules, and its array operations gather from them.
All operations exist both for plain ints (scalar hot paths) and for
numpy arrays of encodings (vectorized linear algebra).
"""

import contextlib
import functools
import operator

import numpy as np

from .errors import (
    ConfigInvalid,
    ContextMismatch,
    DivisionByZero,
    FieldTooLarge,
    FormatError,
    LimitExceeded,
    NotIrreducible,
    NotPrime,
    ShapeViolation,
)

FIELD_SIZE_LIMIT = 1 << 16

#: Largest field whose array products, and in odd characteristic sums and
#: differences, are one gather from flat q x q int64 tables built on the field's
#: first use (characteristic 2 adds by XOR, which is faster still).  The gather
#: flat[a*q + b] costs about the same for every q up to 256: 5-7 us on a
#: (32, 6, 6) stack and 30-57 us on (256, 8, 8), against 13-29 and 170-560 us
#: through the log/exp tables.  Memory sets the limit: with 256, channel_qpoly's
#: peak RSS went from 42.9 to 55.5 MiB (its set-up builds GF(2^8) and GF(3^5));
#: with 64, at most 32 KiB a table, it reads 43.0-43.3 MiB.  Python 3.11.7,
#: numpy 2.4.6, shared 2-vCPU host.
ARRAY_TABLE_LIMIT = 64

#: Largest field with q x q tables (op_tables), on which linalg's row kernel eliminates:
#: each has at most 2^16 entries, and every entry is a small int that CPython shares.
RANK_TABLE_LIMIT = 256


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _is_prime(n: int) -> bool:
    return n >= 2 and _prime_factors(n) == [n]


def _digits(values, p: int, width: int) -> np.ndarray:
    """Little-endian base-p digits of each encoding, on a new last axis of length width."""
    return np.asarray(values, dtype=np.int64)[..., None] // p ** np.arange(width, dtype=np.int64) % p


def _mat_pow(m: np.ndarray, k: int, p: int) -> np.ndarray:
    """m ** k over GF(p), by square-and-multiply."""
    out = np.eye(len(m), dtype=np.int64)
    while k:
        if k & 1:
            out = out @ m % p
        m = m @ m % p
        k >>= 1
    return out


# ---------------------------------------------------------------------------
# Polynomials over GF(p), encoded as little-endian base-p integers.
# Only what context construction needs: degree, divmod, irreducibility.
# ---------------------------------------------------------------------------

def _pdeg(v: int, p: int) -> int:
    return len(_pcoeffs(v, p)) - 1


def _pcoeffs(v: int, p: int) -> list[int]:
    cs = []
    while v:
        cs.append(v % p)
        v //= p
    return cs


def _pmod(a: int, m: int, p: int) -> int:
    dm = _pdeg(m, p)
    if dm < 0:
        raise ZeroDivisionError("polynomial modulus is zero")
    if p == 2:  # the encoding is the bit string of the coefficients: subtract shifted m by XOR
        while a.bit_length() > dm:
            a ^= m << (a.bit_length() - 1 - dm)
        return a
    cm = _pcoeffs(m, p)
    lead_inv = pow(cm[-1], p - 2, p)
    ca = _pcoeffs(a, p)
    while len(ca) - 1 >= dm:
        da = len(ca) - 1
        if ca[da] == 0:
            ca.pop()
            continue
        f = (ca[da] * lead_inv) % p
        shift = da - dm
        for j, y in enumerate(cm):
            ca[shift + j] = (ca[shift + j] - f * y) % p
        ca.pop()
    out = 0
    for c in reversed(ca):
        out = out * p + c
    return out


def _is_irreducible(m: int, p: int) -> bool:
    """Trial division by every monic polynomial of degree 1..deg(m)//2."""
    e = _pdeg(m, p)
    if e < 1:
        return False
    if _pcoeffs(m, p)[0] == 0 and e > 1:
        return False  # divisible by x
    for d in range(1, e // 2 + 1):
        base = p ** d
        for low in range(base):
            if _pmod(m, base + low, p) == 0:
                return False
    return True


def _smallest_irreducible(p: int, e: int) -> int:
    if e == 1:
        return p  # the polynomial x
    base = p ** e
    for low in range(base):
        cand = base + low  # monic of degree e
        if _is_irreducible(cand, p):
            return cand
    raise ShapeViolation("no irreducible polynomial found")  # cannot happen


# ---------------------------------------------------------------------------
# Field context
# ---------------------------------------------------------------------------

class FieldCtx:
    """Immutable description of GF(p^e) plus precomputed arithmetic tables.

    Construct through :func:`field` so equal parameters share one instance.
    """

    def __init__(self, p: int, e: int = 1, modulus: int | None = None):
        if e < 1:
            raise ConfigInvalid("extension degree must be >= 1")
        # size first, so a huge p or e is refused before p ** e or a primality test
        if p >= 2 and (e >= FIELD_SIZE_LIMIT.bit_length() or p ** e > FIELD_SIZE_LIMIT):
            raise FieldTooLarge(f"q = {p}^{e} exceeds limit {FIELD_SIZE_LIMIT}")
        if not _is_prime(p):
            raise NotPrime(f"{p} is not prime")
        q = p ** e
        if modulus is None:
            modulus = _smallest_irreducible(p, e)
        else:
            if _pdeg(modulus, p) != e or _pcoeffs(modulus, p)[-1] != 1:
                raise NotIrreducible(f"modulus {modulus} is not monic of degree {e}")
            if e > 1 and not _is_irreducible(modulus, p):
                raise NotIrreducible(f"modulus {modulus} is reducible over GF({p})")
        self.p = p
        self.e = e
        self.q = q
        self.modulus = p if e == 1 else modulus  # x + c gives GF(p) the same arithmetic as x
        self._build_tables()
        self._tables = None  # the flat q x q op tables, built on first use

    # -- construction helpers ------------------------------------------------

    def _mul_matrix(self, a: int) -> np.ndarray:
        """The e x e GF(p) matrix of x -> a*x on digit vectors: column j holds the digits of a*X^j."""
        p, e = self.p, self.e
        low = _digits(self.modulus, p, e)  # X^e = -low(X) modulo the monic modulus
        cols = [_digits(a, p, e)]
        for _ in range(e - 1):  # shift by X, then reduce
            c = cols[-1]
            cols.append((np.concatenate(([0], c[:-1])) - c[-1] * low) % p)
        return np.stack(cols, axis=1)

    def _build_tables(self):
        p, e, q = self.p, self.e, self.q
        # generator: the smallest encoding g with M_g^((q-1)/f) != I for every prime f | q - 1
        eye = np.eye(e, dtype=np.int64)
        fac = _prime_factors(q - 1)
        for g in range(1, q):
            m = self._mul_matrix(g)
            if all(not np.array_equal(_mat_pow(m, (q - 1) // f, p), eye) for f in fac):
                break
        # exp by doubling: exp[k:2k] = g^k * exp[:k], with m = M_g^k
        self._pvec = p ** np.arange(e, dtype=np.int64)
        exp = np.ones(q - 1, dtype=np.int64)
        k = 1
        while k < q - 1:
            n = min(k, q - 1 - k)
            exp[k:k + n] = _digits(exp[:n], p, e) @ m.T % p @ self._pvec
            m = m @ m % p
            k *= 2
        log = np.zeros(q, dtype=np.int64)
        log[exp] = np.arange(q - 1)
        inv = np.zeros(q, dtype=np.int64)
        inv[1:] = exp[-log[1:] % (q - 1)]
        self.generator = g
        self._exp_np, self._log_np, self._inv_np = exp, log, inv
        self._exp, self._log, self._inv = exp.tolist(), log.tolist(), inv.tolist()
        if p != 2:
            # Zech logarithms zech[k] = log(1 + g^k): adding 1 adds 1 mod p to the
            # constant digit enc % p of g^k's encoding; -1 marks g^k = -1, where 1 + g^k = 0
            one_plus = exp - exp % p + (exp + 1) % p
            zech = np.where(one_plus == 0, -1, log[one_plus])
            self._zech_np, self._zech = zech, zech.tolist()
            self._log_neg_one = (q - 1) // 2  # g^((q - 1)/2) = -1

    # -- identity ------------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, FieldCtx)
            and (self.p, self.e, self.modulus) == (other.p, other.e, other.modulus)
        )

    def __hash__(self):
        return hash((self.p, self.e, self.modulus))

    def __repr__(self):
        return f"FieldCtx(GF({self.p}^{self.e}), modulus={self.modulus})"

    @property
    def spec(self) -> str:
        """Canonical field-spec string, e.g. ``"2"`` or ``"2^2/7"``."""
        if self.e == 1:
            return str(self.p)
        return f"{self.p}^{self.e}/{self.modulus}"

    def check_same(self, other: "FieldCtx"):
        if self != other:
            raise ContextMismatch(f"field contexts differ: {self} vs {other}")

    # -- scalar arithmetic on encodings ---------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if not (a and b):
            return a or b
        log, m = self._log, self.q - 1
        z = self._zech[(log[b] - log[a]) % m]
        return 0 if z < 0 else self._exp[(log[a] + z) % m]

    def neg(self, a: int) -> int:
        if self.p == 2 or not a:
            return a
        return self._exp[(self._log[a] + self._log_neg_one) % (self.q - 1)]

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("inverse of zero")
        return self._inv[a]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, k: int) -> int:
        if a == 0:
            if k == 0:
                return 1
            if k < 0:
                raise DivisionByZero("negative power of zero")
            return 0
        return self._exp[(self._log[a] * k) % (self.q - 1)]

    def frobenius(self, a: int, i: int, base: int | None = None) -> int:
        """a ** (base**i); ``base`` defaults to the characteristic p."""
        b = self.p if base is None else base
        self._check_power_base(b)
        if a == 0:
            return 0
        k = pow(b, i, self.q - 1)
        return self._exp[(self._log[a] * k) % (self.q - 1)]

    def _check_power_base(self, base: int) -> int:
        """The degree j of base = p^j over GF(p); q must be a power of base."""
        b, p = base, self.p
        j = 0
        while b > 1 and b % p == 0:
            b //= p
            j += 1
        if b != 1 or j == 0 or self.e % j != 0:
            raise ContextMismatch(f"{base} is not a valid tower base for {self}")
        return j

    # -- vectorized arithmetic on arrays of encodings --------------------------

    def add_arr(self, a, b):
        if self.p != 2 and self.q <= ARRAY_TABLE_LIMIT:
            return self._gather(0, a, b)
        return self._add_rule(a, b)

    def neg_arr(self, a):
        if self.p == 2:
            return np.array(a, copy=True)
        return self._neg_rule(a)

    def sub_arr(self, a, b):
        if self.p != 2 and self.q <= ARRAY_TABLE_LIMIT:
            return self._gather(1, a, b)
        return self._sub_rule(a, b)

    def mul_arr(self, a, b):
        if 2 < self.q <= ARRAY_TABLE_LIMIT:
            return self._gather(2, a, b)
        return self._mul_rule(a, b)

    def _gather(self, op: int, a, b):
        """Sum, difference or product (op 0, 1 or 2) of a and b, broadcast:
        one gather from that op's flat table at a*q + b."""
        return (self._tables or self._flat_tables())[op][np.multiply(a, self.q, dtype=np.int64) + b]

    def _flat_tables(self) -> tuple:
        """The read-only tables of a + b, a - b and a b at index a*q + b, by the
        rules below; kept when q <= ARRAY_TABLE_LIMIT."""
        x = np.arange(self.q, dtype=np.int64)
        a, b = np.repeat(x, self.q), np.tile(x, self.q)
        tables = self._add_rule(a, b), self._sub_rule(a, b), self._mul_rule(a, b)
        for t in tables:
            t.flags.writeable = False
        if self.q <= ARRAY_TABLE_LIMIT:
            self._tables = tables
        return tables

    def op_tables(self) -> tuple:
        """The read-only q x q arrays add[a, b] = a + b, sub[a, b] = a - b and
        mul[a, b] = a b, for a field of at most RANK_TABLE_LIMIT elements."""
        if self.q > RANK_TABLE_LIMIT:
            raise LimitExceeded(f"q x q tables of {self} would hold {self.q ** 2} entries each")
        return tuple(t.reshape(self.q, self.q) for t in self._tables or self._flat_tables())

    # the rules: XOR in characteristic 2, mod p in a prime field (linalg's pivot passes
    # reach them for every q > ARRAY_TABLE_LIMIT), Zech logarithms otherwise; products by log/exp

    def _add_rule(self, a, b):
        if self.p == 2:
            return np.bitwise_xor(a, b)
        if self.e == 1:
            return (a + b) % self.p
        a, b = np.asarray(a), np.asarray(b)
        la, m = self._log_np[a], self.q - 1
        z = self._zech_np[(self._log_np[b] - la) % m]
        out = np.where(z < 0, 0, self._exp_np[(la + z) % m])
        return np.where(a == 0, b, np.where(b == 0, a, out))

    def _neg_rule(self, a):
        """-a in odd characteristic: g^(log a + log -1)."""
        return np.where(np.equal(a, 0), 0, self._exp_np[(self._log_np[a] + self._log_neg_one) % (self.q - 1)])

    def _sub_rule(self, a, b):
        if self.p == 2:
            return np.bitwise_xor(a, b)
        if self.e == 1:
            return (np.asarray(a) - np.asarray(b)) % self.p
        return self._add_rule(a, self._neg_rule(b))

    def _mul_rule(self, a, b):
        a = np.asarray(a)
        b = np.asarray(b)
        if self.e == 1:
            return (a.astype(np.int64) * b.astype(np.int64)) % self.p
        la = self._log_np[a]
        lb = self._log_np[b]
        out = self._exp_np[(la + lb) % (self.q - 1)]
        return np.where((a == 0) | (b == 0), 0, out)

    def inv_arr(self, a):
        a = np.asarray(a)
        if np.any(a == 0):
            raise DivisionByZero("inverse of zero")
        return self._inv_np[a]

    def pow_arr(self, a, k: int):
        """Elementwise a**k for integer k >= 0."""
        a = np.asarray(a)
        if k == 0:
            return np.ones_like(a)
        out = self._exp_np[(self._log_np[a] * (k % (self.q - 1))) % (self.q - 1)]
        return np.where(a == 0, 0, out)

    def frobenius_arr(self, a, i, base: int | None = None):
        """Elementwise a ** (base ** i); the q-index i is one int or an array of
        them (of any size), broadcast against a."""
        b = self.p if base is None else base
        self._check_power_base(b)
        a = np.asarray(a)
        i = np.asarray(i)
        k = np.array([pow(b, int(j), self.q - 1) for j in i.flat], dtype=np.int64).reshape(i.shape)
        out = self._exp_np[(self._log_np[a] * k) % (self.q - 1)]
        return np.where(a == 0, 0, out)

    def sum_arr(self, a, axis: int = 0):
        """The field sum of a along one axis."""
        a = np.asarray(a)
        if self.p == 2:
            return np.bitwise_xor.reduce(a, axis=axis)
        if self.e == 1:
            return a.sum(axis=axis) % self.p
        zero = np.zeros(np.delete(a.shape, axis), dtype=np.int64)
        return functools.reduce(self._add_rule, np.moveaxis(a, axis, 0), zero)

    # -- linearized polynomials ------------------------------------------------

    def annihilator_step(self, coeffs: list[int], v: int, base: int) -> list[int]:
        """The q-coefficients of P^base - P(v)^(base-1) P, for the linearized
        P = sum_i coeffs[i] x^(base^i): the step that adds v to the roots of a
        subspace polynomial.  Each term is one addition of log/exp list entries:
        log(c^base) = base log c and log(c v^(base^i)) = log c + base^i log v,
        mod q - 1; terms are summed by XOR in characteristic 2 and by add otherwise."""
        self._check_power_base(base)
        exp, log, m = self._exp, self._log, self.q - 1
        add = operator.xor if self.p == 2 else self.add
        pv, lv = 0, log[v]
        if v:
            for c in coeffs:
                if c:
                    pv = add(pv, exp[(log[c] + lv) % m])
                lv = lv * base % m
        shifted = [0] + [exp[log[c] * base % m] if c else 0 for c in coeffs]
        if not pv:
            return shifted
        la = log[self.neg(exp[log[pv] * (base - 1) % m])]  # -P(v)^(base-1)
        return [add(s, exp[(log[c] + la) % m]) if c else s for s, c in zip(shifted, coeffs + [0])]

    def linearized_terms(self, coeffs: dict[int, int], powers: list[list[int]]) -> list[list[int]]:
        """Per nonzero point x, the terms a_i x^(base^i) of sum_i a_i x^(base^i), nonzero a_i by q-index
        i, from powers[j], the points' base^j-th powers, j < N: x^(base^N) = x, so i reads row i mod N."""
        exp, log, m, n = self._exp, self._log, self.q - 1, len(powers)
        rows = [(log[a], powers[i % n]) for i, a in coeffs.items()]
        return [[exp[(la + log[row[j]]) % m] for la, row in rows] for j in range(len(powers[0]))]


def field(p: int, e: int = 1, modulus: int | None = None) -> FieldCtx:
    """Cached factory for field contexts (same field -> same object).

    Every monic degree-1 modulus x + c (encoded p + c) gives GF(p) the same
    arithmetic, so it becomes x, the default; any other modulus of a prime
    field is refused by FieldCtx.
    """
    check_settings(("p", p, None, ""), ("e", e, 1, "extension degree must be >= 1"),
                   *[("modulus", modulus, None, "")] * (modulus is not None))
    if e == 1 and modulus is not None and p <= modulus < 2 * p:
        modulus = None
    return _field(p, e, modulus)


@functools.lru_cache(maxsize=None)
def _field(p: int, e: int, modulus: int | None) -> FieldCtx:
    return FieldCtx(p, e, modulus)


def strict_int(value, name: str) -> int:
    """value as an int, for integer fields of documents and settings; a bool,
    float or string is refused with FormatError, not cast."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise FormatError(f"{name} {value!r} is not an integer")
    return int(value)


def check_settings(*rules) -> None:
    """The one check of integer run settings, before any work: each rule
    (name, value, least, message) needs strict_int(value) >= least (any int
    for least None), else ConfigInvalid."""
    for name, value, least, message in rules:
        try:
            strict_int(value, name)
        except FormatError as exc:
            raise ConfigInvalid(str(exc)) from exc
        if least is not None and value < least:
            raise ConfigInvalid(message)


@contextlib.contextmanager
def reading(what: str):
    """The one reader rule for JSON documents: a missing or mistyped field read
    inside the block becomes FormatError("bad <what> object: ...")."""
    try:
        yield
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"bad {what} object: {exc}") from exc


def ambient_dim(value) -> int:
    """A document's ambient dimension n, an integer >= 1; read inside reading()."""
    n = strict_int(value, "n")
    if n < 1:
        raise FormatError(f"ambient dimension {n} is not positive")
    return n


def parse_field_spec(s: str) -> FieldCtx:
    """Parse ``"p"``, ``"p^e"`` or ``"p^e/modulus-int"`` into a context."""
    if not isinstance(s, str):
        raise FormatError(f"field spec {s!r} is not a string")
    s = s.strip()
    try:
        if "/" in s:
            head, mod_s = s.split("/", 1)
            modulus = int(mod_s)
        else:
            head, modulus = s, None
        if "^" in head:
            p_s, e_s = head.split("^", 1)
            p, e = int(p_s), int(e_s)
        else:
            p, e = int(head), 1
    except ValueError as exc:
        raise FormatError(f"bad field spec {s!r}") from exc
    if e < 1 or (modulus is not None and modulus < 1):
        raise FormatError(f"bad field spec {s!r}: degree and modulus must be positive")
    return field(p, e, modulus)


# ---------------------------------------------------------------------------
# Subfield embeddings GF(q) -> GF(q^l)
# ---------------------------------------------------------------------------

class Embedding:
    """Field homomorphism GF(p^e) -> GF(p^(e*l)), as a lookup table.

    The image of the small field's generator alpha is the smallest root
    (by encoding) of the small modulus inside the big field, which makes
    the embedding deterministic.  Construction verifies the homomorphism
    property exhaustively for small fields and on samples otherwise.
    """

    def __init__(self, small: FieldCtx, big: FieldCtx):
        if big.p != small.p or big.e % small.e != 0:
            raise ContextMismatch(f"{big} is not an extension of {small}")
        self.small = small
        self.big = big
        beta = self._find_root()
        self.root = beta
        # phi(sum c_d alpha^d) = sum c_d beta^d, c_d in GF(p): the digits of
        # each small element times the matrix whose row d holds the digits of beta^d
        p = small.p
        beta_pows = _digits([big.pow(beta, d) for d in range(small.e)], p, big.e)
        self.table = _digits(np.arange(small.q), p, small.e) @ beta_pows % p @ big._pvec
        self._verify()

    def _find_root(self) -> int:
        big, small = self.big, self.small
        xs = np.arange(big.q, dtype=np.int64)
        acc = np.zeros(big.q, dtype=np.int64)
        for c in reversed(_pcoeffs(small.modulus, small.p) or [0]):
            acc = big.add_arr(big.mul_arr(acc, xs), np.full(big.q, c, dtype=np.int64))
        roots = np.nonzero(acc == 0)[0]
        if len(roots) == 0:
            raise NotIrreducible(f"modulus of {small} has no root in {big}")
        return int(roots[0])

    def _verify(self):
        small, big, t = self.small, self.big, self.table
        if len(np.unique(t)) != small.q or t[0] != 0 or t[1] != 1:
            raise ShapeViolation("embedding is not injective/unital")
        q = small.q
        if q <= RANK_TABLE_LIMIT:  # every pair: at most 2^16, the bound of the q x q tables
            a = np.repeat(np.arange(q), q)
            b = np.tile(np.arange(q), q)
        else:
            rng = np.random.default_rng(0)
            a = rng.integers(0, q, size=4096)
            b = rng.integers(0, q, size=4096)
        adds = small.add_arr(a, b)
        muls = small.mul_arr(a, b)
        if not np.array_equal(t[adds], big.add_arr(t[a], t[b])):
            raise ShapeViolation("embedding fails additivity")
        if not np.array_equal(t[muls], big.mul_arr(t[a], t[b])):
            raise ShapeViolation("embedding fails multiplicativity")


@functools.lru_cache(maxsize=None)
def _embedding(small: FieldCtx, big: FieldCtx) -> Embedding:
    """The embedding of small into big, built once per field pair."""
    return Embedding(small, big)


def extension(ctx: FieldCtx, times: int) -> tuple[FieldCtx, Embedding]:
    """GF(q^times) built over the same prime, with the embedding of GF(q)."""
    check_settings(("times", times, 1, "extension degree must be >= 1"))
    return _extension(ctx, times)


@functools.lru_cache(maxsize=None)
def _extension(ctx: FieldCtx, times: int) -> tuple[FieldCtx, Embedding]:
    big = field(ctx.p, ctx.e * times)
    return big, _embedding(ctx, big)
