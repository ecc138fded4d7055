"""Parser for MiniF: recursive-descent statements, precedence-climbing
expressions.

Produces the AST of :mod:`repro.lang.ast`.  The grammar is LL(2); the only
two-token lookahead is distinguishing ``x = f(...)`` (a :class:`CallAssign`)
from ``x = f + ...`` (an ordinary assignment).  Expressions are parsed by
one loop over :data:`repro.lang.ast.PRECEDENCE`; comparisons do not chain
(``a < b < c`` is a parse error), matching Fortran relational expressions.
Nesting is bounded by :data:`MAX_NESTING`.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.collector import collector_paused
from repro.errors import ParseError
from repro.lang import ast
from repro.lang.lexer import tokenize
from repro.lang.tokens import Token, TokenKind

#: Levels a construct may nest inside its procedure's body: each block in
#: it opens one, and so does each operator, subscript and pair of
#: parentheses.  A recursive walk over the AST takes at most three Python
#: frames per level, 768 of the default limit's 1,000 at 256 levels.
#: Nesting past it is a ParseError at the token that crossed it.
MAX_NESTING = 256

#: Binary operator kind -> (precedence, spelling).  An operator kind's
#: value is its spelling.
_BINARY = {
    TokenKind(op): (prec, op) for op, prec in ast.PRECEDENCE.items() if op != "not"
}
_NOT = ast.PRECEDENCE["not"]
_COMPARISON = ast.COMPARISON_PRECEDENCE
_COMPARISONS = frozenset(kind for kind, (prec, _) in _BINARY.items() if prec == _COMPARISON)


class Parser:
    """Parses a token stream into a :class:`repro.lang.ast.Program`.

    The stream ends with its one EOF token, which is never consumed: a
    token is advanced past only after its kind has been checked, and no
    rule expects EOF.  So ``self._tokens[self._index]`` is always in range.
    """

    def __init__(self, tokens: List[Token]):
        self._tokens = tokens
        self._index = 0
        #: Blocks around the statement being parsed, inside its procedure's
        #: body; expressions start from it.
        self._depth = 0

    # ------------------------------------------------------------------
    # Token stream helpers.
    # ------------------------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        return self._tokens[self._index + offset]

    def _advance(self) -> Token:
        token = self._tokens[self._index]
        self._index += 1
        return token

    def _check(self, kind: TokenKind) -> bool:
        return self._tokens[self._index].kind is kind

    def _match(self, kind: TokenKind) -> Optional[Token]:
        token = self._tokens[self._index]
        if token.kind is kind:
            self._index += 1
            return token
        return None

    def _expect(self, kind: TokenKind, context: str) -> Token:
        token = self._tokens[self._index]
        if token.kind is not kind:
            raise ParseError(
                f"expected {kind.value!r} {context}, found {token.kind.value!r}",
                token.pos,
            )
        self._index += 1
        return token

    # ------------------------------------------------------------------
    # Top level.
    # ------------------------------------------------------------------

    def parse_program(self) -> ast.Program:
        """Parse a complete program (global decls, init blocks, procedures)."""
        global_names: List[str] = []
        inits: List[ast.GlobalInit] = []
        procedures: List[ast.Procedure] = []
        while True:
            token = self._peek()
            if token.kind is TokenKind.PROC:
                procedures.append(self._parse_procedure())
            elif token.kind is TokenKind.GLOBAL:
                global_names.extend(self._parse_global_decl())
            elif token.kind is TokenKind.INIT:
                inits.extend(self._parse_init_block())
            elif token.kind is TokenKind.EOF:
                return ast.Program(global_names, inits, procedures)
            else:
                raise ParseError(
                    "expected 'global', 'init', or 'proc' at top level, "
                    f"found {token.kind.value!r}",
                    token.pos,
                )

    def _parse_global_decl(self) -> List[str]:
        self._expect(TokenKind.GLOBAL, "to begin a global declaration")
        names = [self._expect(TokenKind.IDENT, "in global declaration").value]
        while self._match(TokenKind.COMMA):
            names.append(self._expect(TokenKind.IDENT, "in global declaration").value)
        self._expect(TokenKind.SEMI, "after global declaration")
        return names

    def _parse_init_block(self) -> List[ast.GlobalInit]:
        self._expect(TokenKind.INIT, "to begin an init block")
        self._expect(TokenKind.LBRACE, "after 'init'")
        entries: List[ast.GlobalInit] = []
        while not self._check(TokenKind.RBRACE):
            name_tok = self._expect(TokenKind.IDENT, "in init block")
            self._expect(TokenKind.ASSIGN, "in init block entry")
            value = self._parse_signed_literal()
            self._expect(TokenKind.SEMI, "after init block entry")
            entries.append(ast.GlobalInit(name_tok.value, value, name_tok.pos))
        self._expect(TokenKind.RBRACE, "to close the init block")
        return entries

    def _parse_signed_literal(self) -> ast.Value:
        negate = self._match(TokenKind.MINUS) is not None
        token = self._peek()
        if token.kind is TokenKind.INT or token.kind is TokenKind.FLOAT:
            self._index += 1
            value = token.value
            return -value if negate else value
        raise ParseError("init block entries must be literal constants", token.pos)

    def _parse_procedure(self) -> ast.Procedure:
        proc_tok = self._expect(TokenKind.PROC, "to begin a procedure")
        name = self._expect(TokenKind.IDENT, "as procedure name").value
        self._expect(TokenKind.LPAREN, "after procedure name")
        formals: List[str] = []
        if not self._check(TokenKind.RPAREN):
            formals.append(self._expect(TokenKind.IDENT, "as formal parameter").value)
            while self._match(TokenKind.COMMA):
                formals.append(self._expect(TokenKind.IDENT, "as formal parameter").value)
        self._expect(TokenKind.RPAREN, "after formal parameter list")
        self._depth = -1  # the body's own block opens no level
        body = self._parse_block()
        return ast.Procedure(name, formals, body, proc_tok.pos)

    # ------------------------------------------------------------------
    # Statements.
    # ------------------------------------------------------------------

    def _parse_block(self, body: bool = False) -> ast.Block:
        """Parse ``{ stmt* }``, one level deeper than the statement around it.

        An ``if`` or ``while`` body (``body``) may also be one statement,
        which becomes a one-statement block.  Bodies come here straight from
        their statement, so a level costs the parser three frames.
        """
        open_tok = self._peek()
        if self._depth == MAX_NESTING:
            raise ParseError(
                f"statement nested more than {MAX_NESTING} levels deep", open_tok.pos
            )
        self._depth += 1
        if open_tok.kind is not TokenKind.LBRACE:
            if not body:
                self._expect(TokenKind.LBRACE, "to begin a block")
            stmt = self._parse_statement()
            self._depth -= 1
            return ast.Block([stmt], stmt.pos)
        self._index += 1
        stmts: List[ast.Stmt] = []
        while not self._check(TokenKind.RBRACE):
            if self._check(TokenKind.EOF):
                raise ParseError("unterminated block", open_tok.pos)
            stmts.append(self._parse_statement())
        self._index += 1
        self._depth -= 1
        return ast.Block(stmts, open_tok.pos)

    def _parse_statement(self) -> ast.Stmt:
        token = self._peek()
        kind = token.kind
        if kind is TokenKind.IDENT:
            return self._parse_assignment()
        if kind is TokenKind.IF:
            return self._parse_if()
        if kind is TokenKind.CALL:
            return self._parse_call_stmt()
        if kind is TokenKind.PRINT:
            return self._parse_print()
        if kind is TokenKind.RETURN:
            return self._parse_return()
        if kind is TokenKind.WHILE:
            return self._parse_while()
        if kind is TokenKind.LBRACE:
            return self._parse_block()
        raise ParseError(f"expected a statement, found {kind.value!r}", token.pos)

    def _parse_if(self) -> ast.If:
        if_tok = self._advance()
        self._expect(TokenKind.LPAREN, "after 'if'")
        cond = self._parse_expression()
        self._expect(TokenKind.RPAREN, "after if condition")
        then_block = self._parse_block(body=True)
        else_block: Optional[ast.Block] = None
        if self._match(TokenKind.ELSE):
            else_block = self._parse_block(body=True)
        return ast.If(cond, then_block, else_block, if_tok.pos)

    def _parse_while(self) -> ast.While:
        while_tok = self._advance()
        self._expect(TokenKind.LPAREN, "after 'while'")
        cond = self._parse_expression()
        self._expect(TokenKind.RPAREN, "after while condition")
        return ast.While(cond, self._parse_block(body=True), while_tok.pos)

    def _parse_call_stmt(self) -> ast.CallStmt:
        call_tok = self._advance()
        name = self._expect(TokenKind.IDENT, "as callee name").value
        args = self._parse_argument_list()
        self._expect(TokenKind.SEMI, "after call statement")
        return ast.CallStmt(name, args, call_tok.pos)

    def _parse_return(self) -> ast.Return:
        ret_tok = self._advance()
        if self._match(TokenKind.SEMI):
            return ast.Return(None, ret_tok.pos)
        expr = self._parse_expression()
        self._expect(TokenKind.SEMI, "after return expression")
        return ast.Return(expr, ret_tok.pos)

    def _parse_print(self) -> ast.Print:
        print_tok = self._advance()
        self._expect(TokenKind.LPAREN, "after 'print'")
        expr = self._parse_expression()
        self._expect(TokenKind.RPAREN, "after print expression")
        self._expect(TokenKind.SEMI, "after print statement")
        return ast.Print(expr, print_tok.pos)

    def _parse_assignment(self) -> ast.Stmt:
        target_tok = self._advance()
        target = target_tok.value
        if self._match(TokenKind.LBRACKET):
            index = self._parse_expression()
            self._expect(TokenKind.RBRACKET, "to close array subscript")
            self._expect(TokenKind.ASSIGN, "in array element assignment")
            expr = self._parse_expression()
            self._expect(TokenKind.SEMI, "after assignment")
            return ast.AssignIndex(target, index, expr, target_tok.pos)
        self._expect(TokenKind.ASSIGN, "in assignment")
        # Two-token lookahead: `x = f(` starts a call-assignment.
        if self._check(TokenKind.IDENT) and self._peek(1).kind is TokenKind.LPAREN:
            callee = self._advance().value
            args = self._parse_argument_list()
            self._expect(
                TokenKind.SEMI,
                "after call assignment (calls may only be the entire right-hand side)",
            )
            return ast.CallAssign(target, callee, args, target_tok.pos)
        expr = self._parse_expression()
        self._expect(TokenKind.SEMI, "after assignment")
        return ast.Assign(target, expr, target_tok.pos)

    def _parse_argument_list(self) -> List[ast.Expr]:
        self._expect(TokenKind.LPAREN, "to begin argument list")
        args: List[ast.Expr] = []
        if not self._check(TokenKind.RPAREN):
            args.append(self._parse_expression())
            while self._match(TokenKind.COMMA):
                args.append(self._parse_expression())
        self._expect(TokenKind.RPAREN, "to close argument list")
        return args

    # ------------------------------------------------------------------
    # Expressions.
    # ------------------------------------------------------------------

    def _parse_expression(self) -> ast.Expr:
        return self._climb(1, self._depth)[0]

    def _climb(self, min_prec: int, depth: int) -> Tuple[ast.Expr, int]:
        """Parse an operand, then every binary operator that binds at least
        as tightly as ``min_prec``.

        ``depth`` counts the levels open around this expression; the token
        before it opened the last of them.  Returns the expression and the
        deepest level it reaches: ``depth`` plus its height in levels.
        ``a + b + c`` is ``(a + b) + c``, two levels, so a chain of binary
        operators nests although its source does not.
        """
        tokens = self._tokens
        if depth > MAX_NESTING:
            self._too_deep(tokens[self._index - 1])
        token = tokens[self._index]
        kind = token.kind
        if kind is TokenKind.IDENT:
            self._index += 1
            follower = tokens[self._index].kind
            if follower is TokenKind.LBRACKET:
                self._index += 1
                index, reach = self._climb(1, depth + 1)
                self._expect(TokenKind.RBRACKET, "to close array subscript")
                left: ast.Expr = ast.Index(token.value, index, token.pos)
            elif follower is TokenKind.LPAREN:
                raise ParseError(
                    "call expressions may only appear as the entire right-hand "
                    "side of an assignment",
                    token.pos,
                )
            else:
                left = ast.Var(token.value, token.pos)
                reach = depth
        elif kind is TokenKind.INT:
            self._index += 1
            left = ast.IntLit(token.value, token.pos)
            reach = depth
        elif kind is TokenKind.LPAREN:
            self._index += 1
            left, reach = self._climb(1, depth + 1)
            self._expect(TokenKind.RPAREN, "to close parenthesized expression")
        elif kind is TokenKind.MINUS:
            self._index += 1
            operand, reach = self._climb(ast.NEGATION_PRECEDENCE, depth + 1)
            left = ast.Unary("-", operand, token.pos)
        elif kind is TokenKind.FLOAT:
            self._index += 1
            left = ast.FloatLit(token.value, token.pos)
            reach = depth
        elif kind is TokenKind.NOT and min_prec <= _NOT:
            self._index += 1
            operand, reach = self._climb(_NOT, depth + 1)
            left = ast.Unary("not", operand, token.pos)
        else:
            raise ParseError(f"expected an expression, found {kind.value!r}", token.pos)
        while True:
            op_tok = tokens[self._index]
            entry = _BINARY.get(op_tok.kind)
            if entry is None or entry[0] < min_prec:
                return left, reach
            prec, op = entry
            self._index += 1
            right, right_reach = self._climb(prec + 1, depth + 1)
            # The new node is one level above ``left`` and ``right``.
            reach = right_reach if right_reach > reach else reach + 1
            if reach > MAX_NESTING:
                self._too_deep(op_tok)
            left = ast.Binary(op, left, right, op_tok.pos)
            if prec == _COMPARISON and tokens[self._index].kind in _COMPARISONS:
                raise ParseError("comparisons do not chain", tokens[self._index].pos)

    @staticmethod
    def _too_deep(token: Token) -> None:
        raise ParseError(
            f"expression nested more than {MAX_NESTING} levels deep",
            token.pos,
        )


@collector_paused
def parse_program(source: str) -> ast.Program:
    """Lex and parse ``source`` into a :class:`repro.lang.ast.Program`."""
    parser = Parser(tokenize(source))
    return parser.parse_program()


def parse_expression(source: str) -> ast.Expr:
    """Lex and parse ``source`` as a single expression (testing helper)."""
    parser = Parser(tokenize(source))
    expr = parser._parse_expression()
    trailing = parser._peek()
    if trailing.kind is not TokenKind.EOF:
        raise ParseError(
            f"unexpected trailing input {trailing.kind.value!r}", trailing.pos
        )
    return expr
